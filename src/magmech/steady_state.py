"""Mean-field steady state of the driven system.

The undepleted (classical) amplitudes obey a closed form once the
magnon-phonon self-consistency is resolved: the mechanical displacement
shifts the magnon detuning, Delta_eff = Delta_m + g_mb*<q>, while
<q> = -(g_mb/omega_b)|<m>|^2 depends on the magnon amplitude in turn.
In ``microscopic`` mode this scalar fixed point is a cubic in q: one
real root is taken in closed form, and a cubic with three is iterated
(damped Picard) from q = 0, which descends to its largest root.  In
``direct_g`` mode the effective coupling and detuning are taken from the
parameter set.  Without a drive q = 0 and the amplitudes vanish.

:func:`solve_steady_states` solves a :class:`~magmech.params.ParamStack`
with one Picard loop over (N,) arrays; a sweep hands it the valid
points of one part of its grid at a time, so the loop runs once per
part.  Each slice leaves the loop at the iteration where its own
detuning shift meets the tolerance, so its result does not depend on
the stack it is solved in.  A slice whose mean field cannot be used
records why and does not raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import ParamStack, effective_kappa_2

SQRT2 = math.sqrt(2.0)

# The damped Picard iteration: a slice has converged once its detuning
# shift is below TOL_REL * omega_b, after at most MAX_ITER steps, each
# moving q by DAMPING of the way to the next iterate.
TOL_REL = 1e-12
MAX_ITER = 1000
DAMPING = 0.5

# A driven slice skips the Picard loop when its mean-field cubic has one
# real root, which repels the damped map F where |F'| >= 1 + REPEL_TOL,
# unless the discriminant lies within DISC_TOL times the sum of its
# terms' moduli, where roundoff decides the number of real roots.
REPEL_TOL = 1e-6
DISC_TOL = 1e-12


@dataclass(frozen=True)
class SteadyState:
    """Mean-field amplitudes of a stack of parameter sets, one entry per
    slice in (N,) arrays.

    ``residual`` is the max-norm of the zero-derivative equations of
    motion relative to the drive amplitude, and 0 without a drive;
    ``delta_eff`` is the self-consistent magnon detuning.  ``errors``
    holds, per slice, the reason it failed
    (:func:`solve_steady_states`), or None.  Such a slice is not
    converged.  ``real_roots`` is the number of real roots, 1 or 3, of a
    driven microscopic slice's mean-field cubic, and 0 where the cubic
    is not solved.
    """

    m_avg: np.ndarray
    a1_avg: np.ndarray
    a2_avg: np.ndarray
    q_avg: np.ndarray
    p_avg: np.ndarray
    delta_eff: np.ndarray
    iterations_used: np.ndarray
    residual: np.ndarray
    converged: np.ndarray
    real_roots: np.ndarray
    errors: tuple = ()


def _feedback(s: ParamStack) -> np.ndarray:
    """Displacement feedback g: g_mb in microscopic mode, else 0."""
    return s.g_mb if s.coupling_mode == "microscopic" else np.zeros(len(s))


class _Response(NamedTuple):
    """Constants of the closed form: the cavity responses
    f1 = i*Delta_1 + kappa_1 and f2 = i*Delta_2 + kappa_2 - g (the net
    damping, consistent with the cavity-2 equation of motion),
    C = J^2 + f1*f2 and G = g_ma^2*f2."""

    f1: np.ndarray
    f2: np.ndarray
    C: np.ndarray
    G: np.ndarray


def _response(s: ParamStack) -> _Response:
    f1 = 1j * s.Delta_1 + s.kappa_1
    f2 = 1j * s.Delta_2 + effective_kappa_2(s)
    return _Response(f1, f2, s.J * s.J + f1 * f2, s.g_ma ** 2 * f2)


def _equations(s: ParamStack, g, f: _Response, m, a1, a2, q, p):
    """The five equations of motion with all time derivatives set to
    zero, at the stack's drive; the magnon-phonon nonlinearity g only
    acts in ``microscopic`` mode."""
    return (-f.f1 * a1 - 1j * s.g_ma * m - 1j * s.J * a2,
            -f.f2 * a2 - 1j * s.J * a1,
            -(1j * s.Delta_m + s.kappa_m) * m - 1j * s.g_ma * a1
            - 1j * g * m * q + s.epsilon_d,
            s.omega_b * p,
            -s.omega_b * q - s.gamma_b * p - g * np.abs(m) ** 2)


def _relative_max_norm(equations, scale) -> np.ndarray:
    worst = np.abs(equations[0])
    for e in equations[1:]:
        worst = np.maximum(worst, np.abs(e))
    return worst / scale


def _mean_field_cubic(s: ParamStack, g, f: _Response):
    """The displacement fixed point q = f(q) = -(g/omega_b)|E/(u + v q)|^2,
    with u = (kappa_m + i*Delta_m)*C + G and v = i*g*C, as the cubic
    |v|^2 q^3 + 2 Re(conj(u) v) q^2 + |u|^2 q + (g/omega_b)|E|^2 = 0
    of each slice with feedback and C != 0.  Only one real root is
    closed, by Cardano's formula.  The Picard loop takes a cubic with
    three from q = 0 to its largest root r3: every root is negative, as
    f < 0; f(q) - q falls strictly left of the minimum of |u + v q|^2,
    so at most one root lies there; so 0 < f'(r3) < 1, and the damped
    map F(q) = q/2 + f(q)/2 has 1/2 < F'(r3) < 1 and takes each q in
    (r3, 0] into (r3, q).

    Returns per slice the number of real roots (0 where the cubic is
    not solved: no feedback, C = 0, or a non-finite coefficient or
    discriminant); the closed slices, with one finite real root and a
    discriminant clear of roundoff; their roots; and whether these
    attract F.
    """
    count = np.zeros(len(s), dtype=int)
    idx = np.flatnonzero((g != 0.0) & (f.C != 0.0))
    if not idx.size:
        return count, idx, None, None
    # the monic cubic q^3 + B q^2 + Cq + D: divided by |v|^2, with
    # w = u/C = kappa_m + i*Delta_m + G/C
    gi = g[idx]
    w = 1j * s.Delta_m[idx] + s.kappa_m[idx] + f.G[idx] / f.C[idx]
    B = 2.0 * w.imag / gi
    C = (w.real * w.real + w.imag * w.imag) / (gi * gi)
    D = s.epsilon_d / gi * (s.epsilon_d / s.omega_b[idx])
    BC = B * C
    terms = (18.0 * BC * D, -4.0 * B * B * B * D, BC * BC,
             -4.0 * C * C * C, -27.0 * D * D)
    disc = sum(terms)
    scale = sum(np.abs(t) for t in terms)
    solved = np.isfinite(scale)
    three = disc > 0.0
    count[idx[solved]] = np.where(three[solved], 3, 1)

    # Cardano's root of the depressed cubic t^3 + Pt + Q in t = q + B/3
    B3 = B / 3.0
    P = C - B * B3
    Q = B3 * (2.0 * B3 * B3 - C) + D
    h = np.sqrt(np.maximum(0.25 * Q * Q + P * P * P / 27.0, 0.0))
    A = -np.copysign(np.cbrt(0.5 * np.abs(Q) + h), Q)
    q = A - P / (3.0 * A) - B3
    # one Newton step brings the closed form (about 1e-14 relative on
    # the benchmark's sweep) to roundoff
    q -= (((q + B) * q + C) * q + D) / ((3.0 * q + 2.0 * B) * q + C)

    # F'(r) = 1/2 + f'(r)/2 = 1/2 - r (2r + B) / (2 (r^2 + B r + C)); a
    # NaN slope counts as attracting
    slope = 0.5 - q * (2.0 * q + B) / (2.0 * ((q + B) * q + C))
    attracts = ~(np.abs(slope) >= 1.0 + REPEL_TOL)
    closed = (solved & ~three & np.isfinite(q)
              & (np.abs(disc) > DISC_TOL * scale))
    return count, idx[closed], q[closed], attracts[closed]


def _iterate(s: ParamStack, g, C, G, E):
    """Damped Picard iteration of a driven stack from q = 0; returns
    each slice's q, iteration count and converged flag.

    C, G and E = epsilon_d*C are the closed-form constants.  Slices
    without displacement feedback (g = 0) or with C = 0 are not
    iterated.  A slice whose iterate leaves the finite numbers stops at
    that step with q = NaN, not converged.
    """
    n = len(s)
    q = np.zeros(n)
    iterations = np.zeros(n, dtype=int)
    converged = C != 0
    idx = np.flatnonzero((g != 0.0) & converged)
    if not idx.size:
        return q, iterations, converged
    converged[idx] = False

    Dm, g, wb, C, G, E = (x[idx] for x in (s.Delta_m, g, s.omega_b, C, G, E))
    # 1j*x + kappa_m, x = Delta_m + g*q: 1j*x is (+-0, x) for finite x,
    # so the real part is kappa_m; an infinite x makes m NaN either way
    z = np.empty(idx.size, dtype=complex)
    z.real = s.kappa_m[idx]
    tol = TOL_REL * wb
    dg = DAMPING * g
    keep = 1.0 - DAMPING
    qa = q[idx]
    tol_hi = tol.max()
    it = 0
    for it in range(1, MAX_ITER + 1):
        np.add(Dm, g * qa, out=z.imag)
        a2 = np.abs(E / (z * C + G))
        a2 *= a2
        q_next = keep * qa - dg * a2 / wb
        shift = np.abs(g * (q_next - qa))
        # NaN in the minimum: some slice went non-finite, at this step
        # or (through an infinite q) at the last one
        if np.minimum.reduce(shift) >= tol_hi:
            qa = q_next
            continue
        done = shift < tol
        stop = done | np.isnan(shift)
        if stop.any():
            k = idx[stop]
            q[k] = np.where(done, q_next, math.nan)[stop]
            iterations[k] = it
            converged[k] = done[stop]
            live = ~stop
            (idx, Dm, g, wb, tol, dg, z, q_next, C, G, E) = (
                x[live] for x in (idx, Dm, g, wb, tol, dg, z, q_next, C, G,
                                  E))
            if not idx.size:
                return q, iterations, converged
            tol_hi = tol.max()
        qa = q_next
    q[idx] = qa
    iterations[idx] = it
    return q, iterations, converged


# a slice that leaves the finite numbers fails by the rule below, not by
# NumPy's floating-point warnings
@np.errstate(all="ignore")
def solve_steady_states(params: ParamStack) -> SteadyState:
    """Solve the mean-field equations for a parameter stack at its drive
    ``epsilon_d``.

    Returns one :class:`SteadyState` of (N,) arrays.  Without a drive
    every amplitude vanishes, with q = 0, residual 0 and no iteration.
    In ``direct_g`` mode (or with g_mb = 0) the effective detuning
    equals ``Delta_m`` and the closed form is evaluated once.  In
    ``microscopic`` mode the displacement fixed point
    q -> -(g_mb/omega_b)|m(q)|^2 is a cubic in q.  A slice with one real
    root takes it in closed form, with 0 iterations, converged unless
    the root repels the damped map.  The rest are iterated with damped
    Picard steps from q = 0, which selects the branch continuously
    connected to the undriven solution (of three roots, the largest),
    until the effective detuning moves by less than ``TOL_REL * omega_b``.

    Never raises on non-convergence: the last iterate is returned with
    ``converged`` False, and ``real_roots`` tells a multistable slice.
    A slice fails, not converged and with its reason in ``errors``,
    where the closed form divides by J^2 + f1*f2 = 0 (``complex
    division by zero``) and, in ``microscopic`` mode, where the drift
    matrix would read a non-finite ``delta_eff`` or ``m_avg`` (``mean
    field not finite``).  A ``direct_g`` slice whose amplitudes overflow
    stands, with a non-finite residual.  The drive is not checked: the
    caller names a stack's broken rules, as the kernel does.
    """
    s, g = params, _feedback(params)
    n = len(s)
    p = np.zeros(n)

    if s.epsilon_d == 0.0:
        q = np.zeros(n)
        m, a1, a2 = (np.zeros(n, dtype=complex) for _ in range(3))
        return SteadyState(m, a1, a2, q, p, s.Delta_m + g * q,
                           np.zeros(n, dtype=int), np.zeros(n),
                           np.ones(n, dtype=bool), np.zeros(n, dtype=int),
                           (None,) * n)

    f = _response(s)
    E = s.epsilon_d * f.C
    # the loop leaves out the closed slices, as if without feedback
    real_roots, closed, root, attracts = _mean_field_cubic(s, g, f)
    looped = g.copy()
    looped[closed] = 0.0
    q, iterations, converged = _iterate(s, looped, f.C, f.G, E)
    q[closed] = root
    converged[closed] = attracts
    delta_eff = s.Delta_m + g * q
    m = E / ((1j * delta_eff + s.kappa_m) * f.C + f.G)
    a1 = -1j * s.g_ma * f.f2 * m / f.C
    # -i J a1 / f2 with the f2 cancellation done symbolically, so a
    # resonant undamped cavity 2 (f2 = 0) stays finite
    a2 = -s.J * s.g_ma * m / f.C
    residual = _relative_max_norm(_equations(s, g, f, m, a1, a2, q, p),
                                  max(s.epsilon_d, 1e-300))
    failed = f.C == 0
    if s.coupling_mode == "microscopic":
        failed |= ~(np.isfinite(delta_eff) & np.isfinite(m))
    converged &= ~failed
    errors = [None] * n
    for k in np.flatnonzero(failed):
        errors[k] = ("complex division by zero" if f.C[k] == 0
                     else "mean field not finite")
    return SteadyState(m, a1, a2, q, p, delta_eff, iterations, residual,
                       converged, real_roots, tuple(errors))


def effective_coupling(g_mb, m_avg):
    """Effective magnon-phonon coupling i*sqrt(2)*g_mb*<m> (complex);
    elementwise on arrays."""
    return 1j * SQRT2 * g_mb * m_avg

