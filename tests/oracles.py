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

It also holds the package helpers that only the tests call.
"""

import cmath
import math
from dataclasses import fields, replace

import numpy as np
from scipy.linalg import expm

from magmech import steady_state
from magmech.dynamics import drift_matrices
from magmech.lyapunov import solve_lyapunov, symplectic_form
from magmech.params import NUMERIC_FIELDS, ParamStack, effective_kappa_2
from magmech.steady_state import SteadyState
from magmech.sweep import _evaluate_chunk, evaluate_point, stack_params

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


def stack_of(params_seq):
    """The parameter sets ``params_seq``, which share their modes, as a
    :class:`ParamStack`."""
    first = params_seq[0]
    return ParamStack(**{name: np.array([getattr(p, name)
                                         for p in params_seq], dtype=float)
                         for name in NUMERIC_FIELDS},
                      coupling_mode=first.coupling_mode,
                      diffusion_convention=first.diffusion_convention)


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
    s = stack_of(params_seq)
    return steady_state._relative_max_norm(
        steady_state._equations(s, steady_state._feedback(s),
                                steady_state._response(s), state.m_avg,
                                state.a1_avg, state.a2_avg, state.q_avg,
                                state.p_avg, epsilon_d), epsilon_d)


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
                        damping=0.5, q_seed=0.0):
    """Reference steady state: the damped Picard loop on Python complex
    numbers, q -> (1 - damping) q - damping (g_mb/omega_b)|m(q)|^2 until
    the detuning moves by less than ``tol_rel * omega_b``.

    Raises ZeroDivisionError or OverflowError where Python's complex
    arithmetic does; the package reports these per slice instead.
    """
    if params.coupling_mode == "direct_g" or params.g_mb == 0.0:
        delta_eff = params.Delta_m
        m, a1, a2 = _closed_form(params, epsilon_d, delta_eff)
        res = _scalar_residual(params, m, a1, a2, 0.0, epsilon_d)
        return SteadyState(m, a1, a2, 0.0, 0.0, delta_eff, 0, res, True)

    g_mb = params.g_mb
    q = q_seed
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
                       converged)


def find_self_consistent_roots(params, epsilon_d, *, n_seeds=32):
    """Scan displacement seeds for distinct self-consistent solutions.

    Returns all converged roots found from a coarse grid of seeds, as
    one :class:`SteadyState` of (R,) arrays, deduplicated on the
    displacement, ordered with the branch connected to the undriven
    (q = 0 seed) solution first.  A single root means the operating
    point is monostable.  The seed grid spans eight times the q = 0
    root, so that root is solved first, and then again with the seeds
    in one stacked call.  Raises a slice's ``ArithmeticError``.
    """
    first = steady_state.solve_steady_states(ParamStack.broadcast(params, 1),
                                             epsilon_d)
    if first.errors[0] is not None:
        raise first.errors[0]
    if params.coupling_mode != "microscopic":
        return first
    span = 8.0 * max(abs(first.q_avg[0]), 1.0)
    seeds = [0.0] + [-span + 2.0 * span * k / max(n_seeds - 1, 1)
                     for k in range(n_seeds)]
    cands = steady_state.solve_steady_states(
        ParamStack.broadcast(params, len(seeds)), epsilon_d,
        q_seed=np.array(seeds))
    q = cands.q_avg
    roots = [0] if cands.converged[0] else []
    for k in range(1, len(seeds)):
        if cands.errors[k] is not None:
            raise cands.errors[k]
        if not cands.converged[k]:
            continue
        scale = max(abs(q[k]), 1.0)
        if all(abs(q[k] - q[r]) > 1e-6 * scale for r in roots):
            roots.append(k)
    keep = roots if roots else [0]
    return SteadyState(*(getattr(cands, f.name)[keep]
                         for f in fields(SteadyState)[:-1]),
                       tuple(cands.errors[k] for k in keep))


def gauge_phase(m_avg):
    """Phase angle that rotates <m> so the effective coupling is real >= 0.

    Rotating ``m_avg`` by ``exp(1j*gauge_phase(m_avg))`` makes
    ``effective_coupling`` real and non-negative.  This is the gauge in
    which the drift matrix takes its canonical form.
    """
    if m_avg == 0:
        return 0.0
    return -cmath.phase(1j * m_avg)


def bisect_critical_temperature(params, pair, *, t_max=2.0, tol_t=1e-3,
                                tol_e=1e-6, coarse_points=41,
                                drift_mode="derived", epsilon_d=0.0):
    """Reference Tc search: a coarse scan and then a sequential
    bisection, with one ``evaluate_point`` per temperature.

    Returns (Tc, warnings) as ``find_critical_temperature`` does.
    """
    column = "E_%s%s" % pair

    def entanglement(rec):
        value = rec.measures.get(column)
        return value if (rec.stable and value is not None) else 0.0

    def at(t):
        return evaluate_point(params.with_(temperature_T=t),
                              quantities=(column,), drift_mode=drift_mode,
                              epsilon_d=epsilon_d)

    ts = np.linspace(0.0, t_max, coarse_points)
    es = [entanglement(at(t)) for t in ts]
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
        if entanglement(at(mid)) > tol_e:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), tuple(warnings)


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

    The allowance is ``DUAL_METHOD_TOL`` plus the forward error of a
    determinant closed form: a discriminant sigma^2 - 4 det V carries an
    absolute error ~ eps * max(1, sigma^2, |4 det V|), which blows up as
    1/sqrt(disc) when the two symplectic eigenvalues (nearly) coincide.
    Only disagreement beyond that conditioning bound marks a genuine
    inconsistency.
    """
    cms = np.asarray(cm, float).reshape(-1, 4, 4)
    nu = np.asarray(nu, float).reshape(-1)
    nu_spec = spectral_symplectic_eig(cms)
    sigma = (np.linalg.det(cms[:, :2, :2]) + np.linalg.det(cms[:, 2:, 2:])
             - 2.0 * np.linalg.det(cms[:, :2, 2:]))
    det_v = np.linalg.det(cms)
    disc = sigma * sigma - 4.0 * det_v
    disc_err = 64.0 * np.finfo(float).eps * np.maximum(
        np.maximum(1.0, sigma * sigma), np.abs(4.0 * det_v))
    cond = disc_err / (4.0 * np.maximum(nu_spec, 1e-3)
                       * np.sqrt(np.maximum(disc, 0.0) + disc_err))
    return (np.abs(nu - nu_spec),
            DUAL_METHOD_TOL * np.maximum(1.0, nu) + cond)


def stable_covariances(spec, values):
    """(rows, V) for the grid points ``values`` (N, n_axes) of ``spec``:
    the rows of the stable points and their covariance stack, solved
    again by ``solve_lyapunov`` from the kernel's own drift and diffusion
    matrices."""
    table = _evaluate_chunk(stack_params(spec, values), values, (),
                            spec.drift_mode, spec.epsilon_d, matrices=True)
    if table.matrices is None:
        return np.empty(0, dtype=int), np.empty((0, 8, 8))
    live, A, D = table.matrices
    keep = table.stable[live]
    return live[keep], solve_lyapunov(A[keep], D[keep])
