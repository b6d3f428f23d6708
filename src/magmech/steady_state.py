"""Mean-field steady state of the driven system.

The undepleted (classical) amplitudes obey a closed form once the
magnon-phonon self-consistency is resolved: the mechanical displacement
shifts the magnon detuning, Delta_eff = Delta_m + g_mb*<q>, while
<q> = -(g_mb/omega_b)|<m>|^2 depends on the magnon amplitude in turn.
In ``microscopic`` mode this scalar fixed point is iterated (damped
Picard); in ``direct_g`` mode the effective coupling and detuning are
taken from the parameter set and no iteration is needed.

:func:`solve_steady_states` solves a :class:`~magmech.params.ParamStack`
with one Picard loop over (N,) arrays.  Each slice leaves the loop at the
iteration where its own detuning shift meets the tolerance, so its
result does not depend on the stack it is solved in.  A slice that
divides by zero or overflows records its error and does not raise.
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


@dataclass(frozen=True)
class SteadyState:
    """Mean-field amplitudes of a stack of parameter sets, one entry per
    slice in (N,) arrays.

    ``residual`` is the max-norm of the zero-derivative equations of
    motion relative to the drive amplitude; ``delta_eff`` is the
    self-consistent magnon detuning.  ``errors`` holds, per slice, the
    ``ArithmeticError`` (division by zero, overflow) that the solve ran
    into, or None.  Such a slice is not converged.
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


def _equations(s: ParamStack, g, f: _Response, m, a1, a2, q, p, epsilon_d):
    """The five equations of motion with all time derivatives set to
    zero; the magnon-phonon nonlinearity g only acts in ``microscopic``
    mode."""
    return (-f.f1 * a1 - 1j * s.g_ma * m - 1j * s.J * a2,
            -f.f2 * a2 - 1j * s.J * a1,
            -(1j * s.Delta_m + s.kappa_m) * m - 1j * s.g_ma * a1
            - 1j * g * m * q + epsilon_d,
            s.omega_b * p,
            -s.omega_b * q - s.gamma_b * p - g * np.abs(m) ** 2)


def _relative_max_norm(equations, epsilon_d) -> np.ndarray:
    worst = np.abs(equations[0])
    for e in equations[1:]:
        worst = np.maximum(worst, np.abs(e))
    return worst / max(abs(epsilon_d), 1e-300)


def _arithmetic_error(denom: complex, m: complex, *moduli):
    """The error that Python's complex arithmetic raises on one closed-
    form evaluation, m = E/denom then abs(m)**2 and abs() of each of
    ``moduli``: division by zero, or a finite value whose modulus or
    squared modulus overflows.  None if it raises nothing."""
    if denom == 0:
        return ZeroDivisionError("complex division by zero")
    try:
        abs(m) ** 2
        for z in moduli:
            abs(z)
    except OverflowError as exc:
        return exc
    return None


def _iterate(s: ParamStack, g, drive, errors, q_seed):
    """Damped Picard iteration of a stack; returns each slice's q,
    iteration count and converged flag, and records errors in
    ``errors`` in place.

    ``drive`` holds the closed-form constants C, G and E = epsilon_d*C,
    or is None without a drive (zero amplitudes).  Slices without
    displacement feedback (g = 0) or with an error already recorded are
    not iterated.  A slice whose iterate leaves the finite numbers stops
    there with q = NaN and ``MAX_ITER`` iterations, which is where NaN
    arithmetic would take it, unless that step divided by zero or
    overflowed a finite amplitude: then it records the error.
    """
    n = len(s)
    q = np.zeros(n)
    iterations = np.zeros(n, dtype=int)
    converged = np.array([e is None for e in errors], dtype=bool)
    idx = np.flatnonzero((g != 0.0) & converged)
    if not idx.size:
        return q, iterations, converged
    q[idx] = np.broadcast_to(q_seed, (n,))[idx]
    converged[idx] = False

    Dm, km, g, wb = (x[idx] for x in (s.Delta_m, s.kappa_m, g, s.omega_b))
    if drive is not None:
        C, G, E = (x[idx] for x in drive)
    tol = TOL_REL * wb
    dg = DAMPING * g
    keep = 1.0 - DAMPING
    qa = q[idx]
    tol_hi = tol.max()
    a2 = 0.0
    denom = m = None
    prev = denom, m
    it = 0
    for it in range(1, MAX_ITER + 1):
        if drive is not None:
            denom = (1j * (Dm + g * qa) + km) * C + G
            m = E / denom
            a2 = np.abs(m)
            a2 = a2 * a2
        q_next = keep * qa - dg * a2 / wb
        shift = np.abs(g * (q_next - qa))
        # NaN in the minimum: some slice went non-finite, at this step
        # or (through an infinite q) at the last one
        if shift.min() >= tol_hi:
            prev = denom, m
            qa = q_next
            continue
        done = shift < tol
        lost = np.isnan(shift)
        stop = done | lost
        if stop.any():
            k = idx[done]
            q[k] = q_next[done]
            iterations[k] = it
            converged[k] = True
            for j in np.flatnonzero(lost):
                step = (denom, m) if np.isfinite(qa[j]) else prev
                err = (None if step[0] is None else
                       _arithmetic_error(complex(step[0][j]),
                                         complex(step[1][j])))
                q[idx[j]] = math.nan
                iterations[idx[j]] = it if err else MAX_ITER
                errors[idx[j]] = err
            live = ~stop
            (idx, Dm, km, g, wb, tol, dg, q_next) = (
                x[live] for x in (idx, Dm, km, g, wb, tol, dg, q_next))
            if drive is not None:
                C, G, E, denom, m = (x[live] for x in (C, G, E, denom, m))
            if not idx.size:
                return q, iterations, converged
            tol_hi = tol.max()
        prev = denom, m
        qa = q_next
    q[idx] = qa
    iterations[idx] = it
    if drive is not None:
        # an infinite q from the last step
        for j in np.flatnonzero(~np.isfinite(qa)):
            errors[idx[j]] = _arithmetic_error(complex(denom[j]),
                                               complex(m[j]))
    return q, iterations, converged


def solve_steady_states(params: ParamStack, epsilon_d: float, *,
                        q_seed=0.0) -> SteadyState:
    """Solve the mean-field equations for a parameter stack.

    Returns one :class:`SteadyState` of (N,) arrays.  In ``direct_g``
    mode (or with g_mb = 0) the effective detuning equals ``Delta_m``
    and the closed form is evaluated once.  In ``microscopic`` mode the
    displacement fixed point q -> -(g_mb/omega_b)|m(q)|^2 is iterated
    with damped Picard steps from ``q_seed`` (a scalar, or one value per
    slice) until the slice's effective detuning moves by less than
    ``TOL_REL * omega_b``.  The seed 0 selects the branch continuously
    connected to the undriven solution.

    Never raises on non-convergence: the last iterate is returned with
    ``converged`` False so that multistable points can be diagnosed by
    the caller, e.g. by solving again from other seeds.  A slice that
    divides by zero or overflows a finite amplitude gets its error in
    ``errors`` instead of raising.
    """
    if epsilon_d < 0:
        raise ValueError("epsilon_d must be non-negative")
    s, g = params, _feedback(params)
    n = len(s)
    errors: list = [None] * n
    p = np.zeros(n)

    if epsilon_d == 0.0:
        # undriven: the amplitudes vanish, so the mechanical equation
        # -omega_b*q is the only one that can be out of balance
        q, iterations, converged = _iterate(s, g, None, errors, q_seed)
        m, a1, a2 = (np.zeros(n, dtype=complex) for _ in range(3))
        return SteadyState(m, a1, a2, q, p, s.Delta_m + g * q, iterations,
                           _relative_max_norm((s.omega_b * q,), epsilon_d),
                           converged, tuple(errors))

    # NumPy warns where Python's complex arithmetic raises; the errors
    # that matter are named per slice
    with np.errstate(all="ignore"):
        f = _response(s)
        E = epsilon_d * f.C
        # J^2 + f1*f2 divides in the closed form
        for k in np.flatnonzero(f.C == 0):
            errors[k] = ZeroDivisionError("complex division by zero")
        q, iterations, converged = _iterate(s, g, (f.C, f.G, E), errors,
                                            q_seed)
        delta_eff = s.Delta_m + g * q
        denom = (1j * delta_eff + s.kappa_m) * f.C + f.G
        m = E / denom
        a1 = -1j * s.g_ma * f.f2 * m / f.C
        # -i J a1 / f2 with the f2 cancellation done symbolically, so a
        # resonant undamped cavity 2 (f2 = 0) stays finite
        a2 = -s.J * s.g_ma * m / f.C
        equations = _equations(s, g, f, m, a1, a2, q, p, epsilon_d)
        residual = _relative_max_norm(equations, epsilon_d)
    for k in np.flatnonzero(~np.isfinite(residual)):
        if errors[k] is None:
            errors[k] = _arithmetic_error(
                complex(denom[k]), complex(m[k]),
                *(complex(e[k]) for e in equations[:3]))
            converged[k] &= errors[k] is None
    return SteadyState(m, a1, a2, q, p, delta_eff, iterations, residual,
                       converged, tuple(errors))


def effective_coupling(g_mb, m_avg):
    """Effective magnon-phonon coupling i*sqrt(2)*g_mb*<m> (complex);
    elementwise on arrays."""
    return 1j * SQRT2 * g_mb * m_avg

