"""Independent oracles used by the test suite.

Everything in here deliberately avoids the code paths it checks: the
Lyapunov solution is reproduced as an exact time integral, the drift matrix
by numerical differentiation of the nonlinear equations of motion,
reference covariance matrices are built from closed forms, the
mean-field steady state by a damped Picard loop over Python scalars, one
parameter set at a time, the critical temperature by a bisection that
evaluates one point at a time, a grid point's parameters by
replacing fields of the base one point at a time, and the smallest
partially-transposed symplectic eigenvalue by the spectrum of
i*Omega*(P V P) instead of the package's closed form.

It also holds the package helpers that only the tests call, and the
earlier forms of three rewritten loops, which the rewrites must match bit
for bit: the stacked Picard loop, the ``csv.writer`` CSV writer and the
per-point warning report.
"""

import cmath
import csv
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from magmech import steady_state, sweep
from magmech.dynamics import diffusion_matrices, drift_matrices
from magmech.lyapunov import RESIDUAL_MAX, solve_lyapunov, symplectic_form
from magmech.params import (HBAR, K_B, NUMERIC_FIELDS, SHARED_FIELDS,
                            ParamStack, effective_kappa_2)
from magmech.steady_state import DAMPING, MAX_ITER, TOL_REL, SteadyState
from magmech.sweep import (AMPLITUDE_COLUMNS, DIAGNOSTIC_COLUMNS,
                           MEASURE_COLUMNS, SweepTable, _gate, _Outcomes,
                           evaluate_point, normalize_quantities,
                           stack_params)

SQRT2 = math.sqrt(2.0)

# agreement bound of the package's symplectic eigenvalue with the
# spectral route, relative above 1 and absolute below
DUAL_METHOD_TOL = 1e-10

_PARTIAL_TRANSPOSE = np.diag([1.0, -1.0, 1.0, 1.0])


def integrate_lyapunov(A, D, *, max_doublings=200):
    """Steady-state covariance as the exact integral
    V = int_0^inf e^{As} D e^{A^T s} ds.

    The integral over one step h comes from the Van Loan block
    exponential: with M = [[-A, D], [0, A^T]] h, expm(M) holds
    e^{A^T h} in its lower-right block F22 and F22^T times its
    upper-right block is int_0^h e^{As} D e^{A^T s} ds (Van Loan, IEEE
    TAC 23, 1978).  Smith doubling, V <- V + Phi V Phi^T and
    Phi <- Phi^2 with Phi = e^{Ah}, then sums the steps to infinity
    (Smith, SIAM J. Appl. Math. 16, 1968).  The step h = 1/|A| keeps
    the exponential well scaled.
    """
    A = np.asarray(A, float)
    D = np.asarray(D, float)
    n = A.shape[0]
    if np.linalg.eigvals(A).real.max() >= 0:
        raise ValueError("drift matrix is not stable")
    h = 1.0 / max(np.abs(A).max(), 1e-300)
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = -A
    M[:n, n:] = D
    M[n:, n:] = A.T
    F = expm(M * h)
    phi = F[n:, n:].T
    V = phi @ F[:n, n:]
    for _ in range(max_doublings):
        V = V + phi @ V @ phi.T
        phi = phi @ phi
        if np.abs(phi).max() < 1e-18:
            break
    return 0.5 * (V + V.T)


def stack_of(params_seq, **shared):
    """The parameter sets ``params_seq``, which share their modes and
    drive, as a :class:`ParamStack`; ``shared`` replaces shared fields."""
    first = params_seq[0]
    return ParamStack(**{name: np.array([getattr(p, name)
                                         for p in params_seq], dtype=float)
                         for name in NUMERIC_FIELDS},
                      **{name: shared.get(name, getattr(first, name))
                         for name in SHARED_FIELDS})


def point_params(spec, values):
    """Reference parameters of one grid point: the axis values, then the
    links in order, applied to the base with ``dataclasses.replace``."""
    changes = {}
    for axis, value in zip(spec.axes, values):
        if axis.name == "eta":
            changes["gain_g"] = spec.base.kappa_2 - value * spec.base.kappa_1
        else:
            changes[axis.name] = float(value)
    for target, source, factor in spec.links:
        source_value = changes.get(source, getattr(spec.base, source))
        changes[target] = factor * source_value
    return replace(spec.base, **changes)


def build_point_params(spec, values):
    """The grid point ``values`` of ``spec`` as a :class:`PhysicalParams`,
    taken from the package's one-point :func:`stack_params` stack; raises
    ValueError for an invalid point."""
    stack = stack_params(spec, np.array([values], dtype=float))
    return replace(spec.base, **{name: float(getattr(stack, name)[0])
                                 for name in NUMERIC_FIELDS})


class EigensolverError(Exception):
    """The iterative eigensolver failed to converge."""


def eigenvalues(M):
    """All eigenvalues of a real or complex square matrix (n <= 64).

    Backed by the LAPACK general eigensolver (balanced Hessenberg
    reduction followed by shifted QR iteration), which meets the
    backward-error bound ~ machine epsilon times the matrix norm.
    Non-convergence raises :class:`EigensolverError` instead of
    returning a partial spectrum.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if M.shape[0] > 64:
        raise ValueError("kernel is sized for n <= 64")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(str(exc)) from exc


def drift_matrix_general(params, delta_eff, G_mb):
    """Drift matrix for an arbitrary (complex) effective coupling.

    Used to verify gauge invariance: a phase rotation of the magnon
    amplitude rotates ``G_mb`` and acts on the matrix as an orthogonal
    similarity, leaving the spectrum and all derived measures unchanged.
    """
    return drift_matrices(stack_of([params]), [delta_eff], [G_mb])[0]


def mean_field_residual(params_seq, state, epsilon_d):
    """Max-norm of the steady-state equations, relative to epsilon_d,
    of each of the parameter sets ``params_seq`` with its slice of the
    stacked ``state``: an (N,) array.

    Substitutes the amplitudes into the five equations of motion with
    all time derivatives set to zero.
    """
    s = stack_of(params_seq, epsilon_d=epsilon_d)
    return steady_state._relative_max_norm(
        steady_state._equations(s, steady_state._feedback(s),
                                steady_state._response(s), state.m_avg,
                                state.a1_avg, state.a2_avg, state.q_avg,
                                state.p_avg),
        max(abs(epsilon_d), 1e-300))


def _determinant(M):
    """Exact determinant of a square matrix of Fractions, by Gaussian
    elimination."""
    M = [row[:] for row in M]
    det = Fraction(1)
    for k in range(len(M)):
        pivot = next((i for i in range(k, len(M)) if M[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            M[k], M[pivot] = M[pivot], M[k]
            det = -det
        det *= M[k][k]
        for i in range(k + 1, len(M)):
            factor = M[i][k] / M[k][k]
            if factor:
                M[i] = [x - factor * y for x, y in zip(M[i], M[k])]
    return det


def hurwitz_stable(A, shift):
    """True iff every eigenvalue of A + shift*I has a negative real part,
    decided in exact rational arithmetic on the float entries.

    The monic characteristic polynomial s^n + a_1 s^(n-1) + ... + a_n
    comes from the Faddeev-LeVerrier recursion, and the Routh-Hurwitz
    criterion asks every leading principal minor of its Hurwitz matrix,
    H_ij = a_(2j-i), to be positive (DeJesus and Kaufman, PRA 35, 5288
    (1987)).
    """
    n = len(A)
    shift = Fraction(float(shift))
    # the rows of A + shift*I as (column, entry) pairs of the nonzero
    # entries: a drift matrix is sparse
    rows = [[(j, Fraction(float(v)) + (shift if i == j else 0))
             for j, v in enumerate(row) if v or i == j]
            for i, row in enumerate(A)]
    a = [Fraction(1)]
    B = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        MB = [[sum(v * B[j][c] for j, v in row) for c in range(n)]
              for row in rows]
        a.append(-sum(MB[i][i] for i in range(n)) / k)
        B = [[v + (a[k] if i == j else 0) for j, v in enumerate(row)]
             for i, row in enumerate(MB)]
    H = [[a[2 * j - i] if 0 <= 2 * j - i <= n else Fraction(0)
          for j in range(1, n + 1)] for i in range(1, n + 1)]
    return all(_determinant([row[:k] for row in H[:k]]) > 0
               for k in range(1, n + 1))


def random_stable_drift(rng, n=8, margin=0.5):
    """Random dense matrix shifted so its spectrum sits left of -margin."""
    A = rng.normal(size=(n, n))
    shift = np.linalg.eigvals(A).real.max() + margin
    return A - shift * np.eye(n)


def random_spd(rng, n=8):
    """Random symmetric positive definite matrix."""
    B = rng.normal(size=(n, n))
    return B @ B.T + 0.1 * np.eye(n)


def random_spectrum_matrix(rng, n_pairs=3, n_real=2):
    """Real matrix with a prescribed spectrum, via an orthogonal basis.

    Complex eigenvalues come in conjugate pairs realized as 2x2
    rotation-scaling blocks; returns (matrix, expected eigenvalues).
    """
    n = 2 * n_pairs + n_real
    blocks = np.zeros((n, n))
    expected = []
    for k in range(n_pairs):
        a = rng.normal()
        b = abs(rng.normal()) + 0.1
        i = 2 * k
        blocks[i, i] = blocks[i + 1, i + 1] = a
        blocks[i, i + 1] = b
        blocks[i + 1, i] = -b
        expected += [a + 1j * b, a - 1j * b]
    for k in range(n_real):
        lam = rng.normal()
        blocks[2 * n_pairs + k, 2 * n_pairs + k] = lam
        expected.append(lam + 0j)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q @ blocks @ Q.T, np.array(expected)


def sorted_complex(values):
    values = np.asarray(values)
    return values[np.lexsort((values.imag, values.real))]


def tmsv_cm(r):
    """Two-mode squeezed vacuum covariance, vacuum variance 1/2."""
    c = 0.5 * math.cosh(2.0 * r)
    s = 0.5 * math.sinh(2.0 * r)
    cm = np.diag([c, c, c, c])
    cm[0, 2] = cm[2, 0] = s
    cm[1, 3] = cm[3, 1] = -s
    return cm


def random_symplectic(rng, n_modes=2, strength=0.6):
    """exp(Omega H) for random symmetric H is symplectic."""
    n = 2 * n_modes
    H = rng.normal(scale=strength, size=(n, n))
    H = 0.5 * (H + H.T)
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return expm(omega @ H)


def random_physical_cm(rng, n_modes=2, max_thermal=1.5):
    """Physical Gaussian covariance: symplectic conjugation of a
    thermal diagonal."""
    occ = rng.uniform(0.0, max_thermal, size=n_modes)
    diag = np.repeat(occ + 0.5, 2)
    S = random_symplectic(rng, n_modes)
    return S @ np.diag(diag) @ S.T


def quadrature_field(params, epsilon_d, v):
    """Nonlinear classical equations of motion in quadrature variables.

    The field is quadratic in the variables, so a central-difference
    Jacobian of it is exact up to roundoff; that Jacobian at the fixed
    point is the reference for the drift matrix.
    """
    a1 = (v[0] + 1j * v[1]) / SQRT2
    a2 = (v[2] + 1j * v[3]) / SQRT2
    m = (v[4] + 1j * v[5]) / SQRT2
    q, p = v[6], v[7]
    g_mb = params.g_mb if params.coupling_mode == "microscopic" else 0.0

    da1 = -(1j * params.Delta_1 + params.kappa_1) * a1 \
        - 1j * params.g_ma * m - 1j * params.J * a2
    da2 = -(1j * params.Delta_2 + effective_kappa_2(params)) * a2 \
        - 1j * params.J * a1
    dm = -(1j * params.Delta_m + params.kappa_m) * m \
        - 1j * params.g_ma * a1 - 1j * g_mb * m * q + epsilon_d
    dq = params.omega_b * p
    dp = -params.omega_b * q - params.gamma_b * p - g_mb * abs(m) ** 2
    return np.array([SQRT2 * da1.real, SQRT2 * da1.imag,
                     SQRT2 * da2.real, SQRT2 * da2.imag,
                     SQRT2 * dm.real, SQRT2 * dm.imag, dq, dp])


def numerical_jacobian(fun, v0, step):
    """Central-difference Jacobian (exact for quadratic fields)."""
    n = len(v0)
    J = np.zeros((n, n))
    for j in range(n):
        h = step * max(1.0, abs(v0[j]))
        vp, vm = v0.copy(), v0.copy()
        vp[j] += h
        vm[j] -= h
        J[:, j] = (fun(vp) - fun(vm)) / (2.0 * h)
    return J


def _closed_form(params, epsilon_d, delta_eff):
    """Amplitudes for a given (frozen) effective magnon detuning, with the
    f2 cancellation of the cavity-2 amplitude done symbolically."""
    if epsilon_d == 0.0:
        return 0j, 0j, 0j
    f1 = 1j * params.Delta_1 + params.kappa_1
    f2 = 1j * params.Delta_2 + effective_kappa_2(params)
    fm = 1j * delta_eff + params.kappa_m
    jj = params.J * params.J
    denom = fm * (jj + f1 * f2) + params.g_ma ** 2 * f2
    m = epsilon_d * (jj + f1 * f2) / denom
    a1 = -1j * params.g_ma * f2 * m / (jj + f1 * f2)
    a2 = -params.J * params.g_ma * m / (jj + f1 * f2)
    return m, a1, a2


def _scalar_residual(params, m, a1, a2, q, epsilon_d):
    g_mb = params.g_mb if params.coupling_mode == "microscopic" else 0.0
    r1 = -(1j * params.Delta_1 + params.kappa_1) * a1 \
        - 1j * params.g_ma * m - 1j * params.J * a2
    r2 = -(1j * params.Delta_2 + effective_kappa_2(params)) * a2 \
        - 1j * params.J * a1
    rm = -(1j * params.Delta_m + params.kappa_m) * m \
        - 1j * params.g_ma * a1 - 1j * g_mb * m * q + epsilon_d
    rp = -params.omega_b * q - g_mb * abs(m) ** 2
    worst = max(abs(r1), abs(r2), abs(rm), abs(rp))
    return worst / max(abs(epsilon_d), 1e-300)


def picard_steady_state(params, epsilon_d, *, tol_rel=1e-12, max_iter=1000,
                        damping=0.5):
    """Reference steady state: the damped Picard loop on Python complex
    numbers, q -> (1 - damping) q - damping (g_mb/omega_b)|m(q)|^2 until
    the detuning moves by less than ``tol_rel * omega_b``, from q = 0.

    Raises ZeroDivisionError or OverflowError where Python's complex
    arithmetic does; the package does not raise there.
    """
    if params.coupling_mode == "direct_g" or params.g_mb == 0.0:
        delta_eff = params.Delta_m
        m, a1, a2 = _closed_form(params, epsilon_d, delta_eff)
        res = _scalar_residual(params, m, a1, a2, 0.0, epsilon_d)
        return SteadyState(m, a1, a2, 0.0, 0.0, delta_eff, 0, res, True, 0)

    g_mb = params.g_mb
    q = 0.0
    converged = False
    iterations = 0
    tol = tol_rel * params.omega_b
    for iterations in range(1, max_iter + 1):
        delta_eff = params.Delta_m + g_mb * q
        m, _, _ = _closed_form(params, epsilon_d, delta_eff)
        q_next = (1.0 - damping) * q - damping * g_mb * abs(m) ** 2 \
            / params.omega_b
        shift = abs(g_mb * (q_next - q))
        q = q_next
        if shift < tol:
            converged = True
            break
    delta_eff = params.Delta_m + g_mb * q
    m, a1, a2 = _closed_form(params, epsilon_d, delta_eff)
    res = _scalar_residual(params, m, a1, a2, q, epsilon_d)
    return SteadyState(m, a1, a2, q, 0.0, delta_eff, iterations, res,
                       converged, 0)


def mean_field_cubic_roots(params, epsilon_d):
    """Real roots of one microscopic point's mean-field cubic
    |v|^2 q^3 + 2 Re(conj(u) v) q^2 + |u|^2 q + (g_mb/omega_b)|E|^2 = 0,
    u = (kappa_m + i Delta_m) C + G, v = i g_mb C, E = epsilon_d C,
    as pairs (root, slope) sorted by the root, where slope is F'(root)
    of the damped map F(q) = q/2 - (g_mb/omega_b)|E/(u + v q)|^2 / 2.

    The roots are numpy's companion-matrix eigenvalues whose imaginary
    part is below 1e-6 of their modulus, polished by Newton steps on
    Python floats.
    """
    f1 = 1j * params.Delta_1 + params.kappa_1
    f2 = 1j * params.Delta_2 + effective_kappa_2(params)
    C = params.J ** 2 + f1 * f2
    u = (params.kappa_m + 1j * params.Delta_m) * C + params.g_ma ** 2 * f2
    v = 1j * params.g_mb * C
    k = params.g_mb / params.omega_b * abs(epsilon_d * C) ** 2
    coeffs = [abs(v) ** 2, 2.0 * (u.conjugate() * v).real, abs(u) ** 2, k]
    out = []
    for z in np.roots(coeffs):
        if abs(z.imag) > 1e-6 * abs(z):
            continue
        q = float(z.real)
        for _ in range(3):
            p = ((coeffs[0] * q + coeffs[1]) * q + coeffs[2]) * q + k
            dp = (3.0 * coeffs[0] * q + 2.0 * coeffs[1]) * q + coeffs[2]
            q -= p / dp
        d = u + v * q
        # f'(q) = (g_mb/omega_b)|E|^2 * 2 Re(conj(d) v) / |d|^4
        slope = 0.5 + k * (d.conjugate() * v).real / abs(d) ** 4
        out.append((q, slope))
    return sorted(out)


def stacked_picard_loop(s, g, C, G, E):
    """The stacked damped Picard loop of ``steady_state._iterate`` as it
    was written before its step was cut to fewer NumPy calls: one fresh
    array per operation, ``(1j * (Delta_m + g*q) + kappa_m) * C + G`` as
    the denominator and ``ndarray.min`` as the stop test.  Same calling
    contract as ``_iterate``; the package's loop must give the same bits.
    """
    n = len(s)
    q = np.zeros(n)
    iterations = np.zeros(n, dtype=int)
    converged = C != 0
    idx = np.flatnonzero((g != 0.0) & converged)
    if not idx.size:
        return q, iterations, converged
    converged[idx] = False

    Dm, km, g, wb, C, G, E = (x[idx] for x in (s.Delta_m, s.kappa_m, g,
                                               s.omega_b, C, G, E))
    tol = TOL_REL * wb
    dg = DAMPING * g
    keep = 1.0 - DAMPING
    qa = q[idx]
    tol_hi = tol.max()
    it = 0
    for it in range(1, MAX_ITER + 1):
        denom = (1j * (Dm + g * qa) + km) * C + G
        m = E / denom
        a2 = np.abs(m)
        a2 = a2 * a2
        q_next = keep * qa - dg * a2 / wb
        shift = np.abs(g * (q_next - qa))
        # NaN in the minimum: some slice went non-finite, at this step
        # or (through an infinite q) at the last one
        if shift.min() >= tol_hi:
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
            # a slice that left the finite numbers stops with q = NaN
            q[idx[lost]] = math.nan
            iterations[idx[lost]] = it
            live = ~stop
            (idx, Dm, km, g, wb, tol, dg, q_next, C, G, E) = (
                x[live] for x in (idx, Dm, km, g, wb, tol, dg, q_next, C, G,
                                  E))
            if not idx.size:
                return q, iterations, converged
            tol_hi = tol.max()
        qa = q_next
    q[idx] = qa
    iterations[idx] = it
    return q, iterations, converged


def gauge_phase(m_avg):
    """Phase angle that rotates <m> so the effective coupling is real >= 0.

    Rotating ``m_avg`` by ``exp(1j*gauge_phase(m_avg))`` makes
    ``effective_coupling`` real and non-negative.  This is the gauge in
    which the drift matrix takes its canonical form.
    """
    if m_avg == 0:
        return 0.0
    return -cmath.phase(1j * m_avg)


def eta_ratio(params):
    """Gain-loss ratio (kappa_2 - gain_g)/kappa_1 of a point, or of each
    point of a :class:`ParamStack`; negative exactly when the second
    cavity is net active."""
    return effective_kappa_2(params) / params.kappa_1


def bose_occupation(omega, temperature):
    """Scalar Bose-Einstein occupation 1/(exp(x) - 1), x = hbar*omega /
    (k_B*T), in Python floats with ``math.expm1``: 0 at T = 0 and past
    x = 700, where exp would overflow."""
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (K_B * temperature)
    return 0.0 if x > 700.0 else 1.0 / math.expm1(x)


def bisect_critical_temperature(params, pair, *, tol_t=1e-3,
                                coarse_points=41):
    """Reference Tc search: a coarse scan over [0, 2] K and then a
    sequential bisection to ``tol_t``, with one ``evaluate_point`` per
    temperature; E_N at most 1e-6 is not entangled.

    Returns (Tc, warnings) as ``find_critical_temperature`` does.
    """
    column = "E_%s%s" % pair
    t_max, tol_e = 2.0, 1e-6

    def entanglement(t):
        rec = evaluate_point(params.with_(temperature_T=t),
                             quantities=(column,))
        value = rec.measures.get(column)
        return value if (rec.stable and value is not None) else 0.0

    ts = np.linspace(0.0, t_max, coarse_points)
    es = [entanglement(t) for t in ts]
    if es[0] <= tol_e:
        raise ValueError(f"{column} is not positive at T = 0; "
                         "critical temperature undefined")

    warnings = []
    crossing = next((i for i, e in enumerate(es) if e <= tol_e), None)
    if crossing is None:
        warnings.append(f"still entangled at t_max = {t_max} K")
        return t_max, tuple(warnings)
    if any(e > tol_e for e in es[crossing:]):
        warnings.append("non-monotonic: re-entrant entanglement on the "
                        "coarse scan; returning the first zero crossing")
    rises = [es[i + 1] - es[i] for i in range(crossing - 1)]
    if rises and max(rises) > 1e-9 * max(1.0, max(es)):
        warnings.append("non-monotonic: entanglement increases with "
                        "temperature on the coarse scan")

    lo, hi = float(ts[crossing - 1]), float(ts[crossing])
    while hi - lo > tol_t:
        mid = 0.5 * (lo + hi)
        if entanglement(mid) > tol_e:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), tuple(warnings)


TC_CURVES = {
    # E_N of the temperature, and the search's result and warnings
    "still_entangled": (lambda t: 0.5 - 0.1 * t, 2.0,
                        ("still entangled at t_max = 2.0 K",)),
    "re_entrant": (lambda t: np.where(t < 0.5, 0.5 - t,
                                      np.where(t < 1.0, 0.0, 0.1)), 0.5,
                   ("non-monotonic: re-entrant entanglement on the coarse "
                    "scan; returning the first zero crossing",)),
    "increasing": (lambda t: np.maximum(0.0, (1.0 - t) * (0.1 + t)), 1.0,
                   ("non-monotonic: entanglement increases with temperature "
                    "on the coarse scan",)),
}


def prescribe_tc_curve(monkeypatch, name):
    """Make a Tc search's E_N at each temperature the curve ``name`` of
    ``TC_CURVES``, whatever the point; returns the search's Tc and
    warnings on it."""
    curve, tc, warnings = TC_CURVES[name]
    monkeypatch.setattr(sweep, "_superposed_log_negativity",
                        lambda params, basis, temperatures: curve(
                            np.asarray(temperatures, dtype=float)))
    return tc, warnings


def spectral_symplectic_eig(cms):
    """Smallest symplectic eigenvalue of each partially transposed
    two-mode CM of a stack (N, 4, 4), as the smallest modulus in the
    spectrum of i*Omega*(P cm P), which is {+-nu_-, +-nu_+}."""
    tilde = _PARTIAL_TRANSPOSE @ cms @ _PARTIAL_TRANSPOSE
    spec = np.linalg.eigvals(1j * symplectic_form(2) @ tilde)
    return np.abs(spec).min(axis=-1)


def symplectic_agreement(cm, nu):
    """(|nu - spectral|, allowance) per slice of the CM stack ``cm``;
    ``nu`` agrees with the spectral route where the first is at most the
    second.

    The allowance is ``DUAL_METHOD_TOL`` plus the forward error of the
    form the package evaluates, nu^2 = 2 det V / (sigma + sqrt(disc))
    with the expanded discriminant disc = (det A - det C)^2 - 4 det B
    (det A + det C) + 4 t, t = tr(A adj(B)^T C adj(B)).  A 2x2 block
    determinant is off by at most ``unit`` times the moduli of its two
    products, and the expansion by ``unit`` times the moduli of its
    terms.  Near a meeting of the two symplectic eigenvalues those
    errors enter disc squared or times det B, and where sigma is large
    the sum sigma + sqrt(disc) damps them, so the allowance stays tight
    where a cancelling form is off.
    """
    cms = np.asarray(cm, float).reshape(-1, 4, 4)
    nu = np.asarray(nu, float).reshape(-1)
    nu_spec = spectral_symplectic_eig(cms)
    unit = 64.0 * np.finfo(float).eps
    a, b, c = cms[:, :2, :2], cms[:, :2, 2:], cms[:, 2:, 2:]
    det_a, det_b, det_c = (np.linalg.det(m) for m in (a, b, c))
    err_a, err_b, err_c = (unit * (np.abs(m[:, 0, 0] * m[:, 1, 1])
                                   + np.abs(m[:, 0, 1] * m[:, 1, 0]))
                           for m in (a, b, c))
    adj_bt = b[:, ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    t = ((a @ adj_bt) * (adj_bt @ c.transpose(0, 2, 1))).sum(axis=(1, 2))
    t_abs = ((np.abs(a) @ np.abs(adj_bt)) * (np.abs(adj_bt) @ np.abs(
        c).transpose(0, 2, 1))).sum(axis=(1, 2))
    gap = np.abs(det_a - det_c)
    both = np.abs(det_a) + np.abs(det_c)
    err_ac = err_a + err_c
    disc = gap * gap - 4.0 * det_b * (det_a + det_c) + 4.0 * t
    disc_err = ((2.0 * gap + err_ac) * err_ac
                + 4.0 * (err_b * (both + err_ac) + np.abs(det_b) * err_ac)
                + 4.0 * unit * t_abs
                + unit * (gap * gap + 4.0 * np.abs(det_b) * both
                          + 4.0 * np.abs(t)))
    root = np.sqrt(np.maximum(disc, 0.0))
    root_err = disc_err / np.sqrt(root * root + disc_err)
    sigma = det_a + det_c - 2.0 * det_b
    cond = (nu_spec * (root_err + err_ac + 2.0 * err_b)
            / (2.0 * (sigma + root)))
    return (np.abs(nu - nu_spec),
            DUAL_METHOD_TOL * np.maximum(1.0, nu) + cond)


def csv_module_write_csv(records, spec, stream):
    """``sweep.write_csv`` as it was written before it formatted each
    distinct value once: ``"%.17g"`` of every measure and diagnostic
    entry, an empty field for each null (NaN), and every row through
    ``csv.writer``, which decides all the quoting.  The package's writer
    must give the same bytes."""
    table = SweepTable.of(records, spec)
    _, with_amplitudes = normalize_quantities(spec.quantities)
    header = (list(spec.axis_names()) + ["stable"] + list(MEASURE_COLUMNS)
              + list(DIAGNOSTIC_COLUMNS)
              + list(AMPLITUDE_COLUMNS if with_amplitudes else ())
              + ["warnings"])
    fields = []
    for axis in table.axis_values.T:
        # by bits, so that -0.0 keeps its sign
        distinct, index = np.unique(axis.view(np.int64), return_inverse=True)
        text = ["%.17g" % v for v in distinct.view(float).tolist()]
        fields.append([text[i] for i in index.reshape(-1).tolist()])
    fields.append(["true" if s else "false" for s in table.stable.tolist()])
    blank = [""] * len(table)
    for name in header[len(spec.axes) + 1:-1]:
        values = table.values.get(name)
        fields.append(blank if values is None else
                      ["" if n else "%.17g" % v
                       for v, n in zip(values.tolist(),
                                       np.isnan(values).tolist())])
    fields.append([";".join(w) for w in table.warnings])
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*fields))


def report_warnings_by_point(warnings, stream):
    """``cli._report_warnings`` as it was written before it counted each
    distinct warnings sequence once: the categories of every point, each
    counted once per point, in order of first appearance, one line each
    to ``stream``.  The package's report must print the same lines."""
    counts = {}
    for point in warnings:
        for head in {w.split(":", 1)[0].split(" (", 1)[0]: None
                     for w in point}:
            counts[head] = counts.get(head, 0) + 1
    for head, n in counts.items():
        noun = "point" if n == 1 else "points"
        print(f"warning: {head} ({n} {noun})", file=stream)


def stable_covariances(spec, values):
    """(rows, V) for the grid points ``values`` (N, n_axes) of ``spec``:
    the rows of the stable points and their covariance stack, solved
    again by ``solve_lyapunov`` from the drift matrices of the kernel's
    gate on ``values`` as one stack, its stability verdicts and the
    diffusion matrices of its block.  A solve that misses the kernel's
    residual gate leaves its point out, as the kernel nulls it."""
    params = stack_params(spec, values)
    _, _, block = _gate(params, params.errors(), _Outcomes(len(values)))
    if block is None:
        return np.empty(0, dtype=int), np.empty((0, 8, 8))
    live, _, sub, A, report = block
    stable = report.stable
    V, residual = solve_lyapunov(A[stable],
                                 diffusion_matrices(sub)[stable])
    kept = residual < RESIDUAL_MAX
    return live[stable][kept], V[kept]
