import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmech import lyapunov, reference_baseline
from magmech.dynamics import diffusion_matrices, stability
from magmech.lyapunov import (eigendecomposition, lyapunov_residual,
                              physicality_min_eig, solve_lyapunov,
                              symplectic_form)
from magmech.sweep import evaluate_point, point_matrices

from .oracles import (EigensolverError, drift_matrix_general, eigenvalues,
                      integrate_lyapunov, random_spd, random_spectrum_matrix,
                      random_stable_drift, sorted_complex, stack_of)


def _solve(A, D):
    """The solution of one system, solved as a one-slice stack."""
    V, _ = solve_lyapunov(A[None], D[None])
    return V[0]


def _residual(A, V, D):
    return lyapunov_residual(A[None], V[None], D[None])[0]


def test_scalar_balance():
    V = _solve(-np.eye(8), 2.0 * np.eye(8))
    assert V == pytest.approx(np.eye(8), abs=1e-13)


def test_thermal_fixed_point():
    # one decoupled mode: damping kappa, noise kappa(2N+1) -> V=(N+1/2)I
    kappa, n_th = 0.7, 2.3
    V = _solve(-kappa * np.eye(2), kappa * (2 * n_th + 1) * np.eye(2))
    assert V == pytest.approx((n_th + 0.5) * np.eye(2), rel=1e-12)


def test_baseline_covariance_residual_and_integration(baseline):
    A = drift_matrix_general(baseline, baseline.Delta_m, baseline.G_mb)
    D = diffusion_matrices(stack_of([baseline]))[0]
    assert stability(A[None], baseline.kappa_1).stable[0]
    V = _solve(A, D)
    assert _residual(A, V, D) < 1e-10
    V_t = integrate_lyapunov(A, D)
    assert np.abs(V - V_t).max() < 1e-8


def test_stacked_solve_matches_single_solves(rng):
    # each slice is bit-equal to the same slice solved as a one-slice
    # stack
    A = np.stack([random_stable_drift(rng) for _ in range(5)])
    D = np.stack([random_spd(rng) for _ in range(5)])
    V, _ = solve_lyapunov(A, D)
    res = lyapunov_residual(A, V, D)
    phys = physicality_min_eig(V)
    for k in range(5):
        one = slice(k, k + 1)
        assert V[k].tobytes() == solve_lyapunov(A[one],
                                                D[one])[0][0].tobytes()
        assert res[k] == lyapunov_residual(A[one], V[one], D[one])[0]
        assert phys[k] == physicality_min_eig(V[one])[0]
    assert res.max() < 1e-12


def test_returned_residual_is_the_residual(rng, monkeypatch):
    # spectral slices; the exceptional point of the g_ma = 0 window of
    # J, which the Kronecker fallback solves again; and a marginal drift
    # matrix, singular in both solves
    base = reference_baseline()
    A_ep, D_ep = point_matrices(base.with_(g_ma=0.0, J=0.75 * base.kappa_1))
    marginal = -np.eye(8)
    marginal[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    A = np.stack([random_stable_drift(rng), A_ep, marginal,
                  random_stable_drift(rng)])
    D = np.stack([random_spd(rng), D_ep, np.eye(8), random_spd(rng)])
    solved_again = []
    kronecker = lyapunov._kronecker_solve

    def spy(a, d):
        solved_again.append(a.tobytes())
        return kronecker(a, d)

    monkeypatch.setattr(lyapunov, "_kronecker_solve", spy)
    V, residual = solve_lyapunov(A, D)
    assert solved_again == [A[1].tobytes(), A[2].tobytes()]
    assert np.isnan(V[2]).all() and np.isnan(residual[2])
    assert residual[[0, 1, 3]].max() < 1e-12
    assert residual.tobytes() == lyapunov_residual(A, V, D).tobytes()


def test_eigendecomposition_decomposes_each_run_once(rng, monkeypatch):
    a, b = random_stable_drift(rng), random_stable_drift(rng)
    a[0, 1] = 0.0
    signed = a.copy()
    signed[0, 1] = -0.0
    bad = b.copy()
    bad[2, 3] = np.nan
    M = np.stack([a, a, a, signed, b, b, bad, bad, a])
    expected = [np.linalg.eig(m) for m in M[:6]] + [None, None,
                                                    np.linalg.eig(a)]

    decomposed = []
    eig = np.linalg.eig

    def spy(stack):
        decomposed.append(len(stack))
        return eig(stack)

    monkeypatch.setattr(np.linalg, "eig", spy)
    w, S = eigendecomposition(M)
    # runs: a, signed (a different input to eig), b, bad (skipped), a
    assert decomposed == [4]
    for k, ref in enumerate(expected):
        if ref is None:
            assert np.isnan(w[k]).all() and np.isnan(S[k]).all()
            continue
        assert np.array_equal(w[k].view(np.int64), ref[0].view(np.int64))
        assert np.array_equal(S[k].view(np.int64), ref[1].view(np.int64))


def _bits(x):
    return x.dtype, x.shape, x.tobytes()


def test_real_spectra_come_back_complex_as_on_the_run_path(rng):
    # symmetric matrices, for which np.linalg.eig returns real arrays;
    # the distinct stack goes to eig as it is, the repeated one through
    # the runs, and both give the same complex bits
    M = rng.normal(size=(3, 8, 8))
    M = M + np.swapaxes(M, 1, 2)
    assert np.linalg.eig(M)[0].dtype == float
    fast = eigendecomposition(M)
    runs = eigendecomposition(M[[0, 0, 1, 2, 2]])
    for got, ran in zip(fast, runs):
        assert got.dtype == complex
        assert _bits(got) == _bits(ran[[0, 2, 3]])


def test_non_finite_slice_of_a_distinct_stack_is_nan(rng):
    a, b = random_stable_drift(rng), random_stable_drift(rng)
    bad = b.copy()
    bad[0, 0] = np.inf
    w, S = eigendecomposition(np.stack([a, bad, b]))
    assert np.isnan(w[1]).all() and np.isnan(S[1]).all()
    for k, m in ((0, a), (2, b)):
        ref = np.linalg.eig(m)
        assert _bits(w[k]) == _bits(ref[0]) and _bits(S[k]) == _bits(ref[1])


def test_eigensolver_failure_costs_only_its_slice(rng, monkeypatch):
    # LAPACK may fail to converge on a slice: the distinct stack falls
    # back to the runs, then to one slice at a time
    a, b, c = (random_stable_drift(rng) for _ in range(3))
    eig = np.linalg.eig
    refs = [eig(m) for m in (a, c)]

    def failing(stack):
        if any(np.array_equal(m, b) for m in np.reshape(stack, (-1, 8, 8))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(stack)

    monkeypatch.setattr(np.linalg, "eig", failing)
    w, S = eigendecomposition(np.stack([a, b, c]))
    assert np.isnan(w[1]).all() and np.isnan(S[1]).all()
    for k, ref in zip((0, 2), refs):
        assert _bits(w[k]) == _bits(ref[0]) and _bits(S[k]) == _bits(ref[1])


def test_singular_slice_of_a_distinct_stack_inverts_to_nan(rng):
    S0, S1 = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
              for _ in range(2))
    Sinv = lyapunov._inverse(np.stack([S0, np.zeros((8, 8), complex), S1]))
    assert np.isnan(Sinv[1]).all()
    assert Sinv[0].tobytes() == np.linalg.inv(S0).tobytes()
    assert Sinv[2].tobytes() == np.linalg.inv(S1).tobytes()


def test_one_slice_is_its_own_run(rng, monkeypatch):
    # a one-slice stack, the gate's and the unit-noise solve's in a Tc
    # search, skips the bit comparison and the run numbering: _runs
    # calls no NumPy function on it, and two slices still compare
    used = []

    class Watched:
        def __getattr__(self, name):
            used.append(name)
            return getattr(np, name)

    M = random_stable_drift(rng)[None]
    monkeypatch.setattr(lyapunov, "np", Watched())
    starts, run = lyapunov._runs(M)
    assert used == []
    assert starts.tolist() == [True] and run.tolist() == [0]
    lyapunov._runs(np.concatenate([M, M]))
    assert "ascontiguousarray" in used
    monkeypatch.undo()
    # and goes to LAPACK as it is, complex as on the run path
    w, S = eigendecomposition(M)
    ref = np.linalg.eig(M[0])
    assert _bits(w[0]) == _bits(ref[0]) and _bits(S[0]) == _bits(ref[1])
    assert _bits(lyapunov._inverse(S)[0]) == _bits(np.linalg.inv(S[0]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_one_slice_stack_is_nan(rng, entry):
    M = random_stable_drift(rng)[None]
    M[0, 2, 3] = entry
    w, S = eigendecomposition(M)
    assert w.shape == (1, 8) and S.shape == (1, 8, 8)
    assert np.isnan(w).all() and np.isnan(S).all()


def test_eigensolver_failure_on_one_slice_is_nan(rng, monkeypatch):
    def failing(stack):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", failing)
    w, S = eigendecomposition(random_stable_drift(rng)[None])
    assert w.shape == (1, 8) and S.shape == (1, 8, 8)
    assert np.isnan(w).all() and np.isnan(S).all()


def test_singular_one_slice_stack_inverts_to_nan():
    Sinv = lyapunov._inverse(np.zeros((1, 8, 8), complex))
    assert Sinv.shape == (1, 8, 8) and np.isnan(Sinv).all()


@pytest.mark.parametrize("exceptional", [False, True])
def test_one_drift_matrix_solves_a_stack_of_noises(rng, monkeypatch,
                                                   exceptional):
    # the unit noises and one full noise against one A, given with its
    # decomposition or without, give the bits of the solve against that
    # A replicated; at the exceptional point of the g_ma = 0 window of J
    # the Kronecker retry solves again, from the broadcast A
    if exceptional:
        base = reference_baseline()
        A, D = point_matrices(base.with_(g_ma=0.0, J=0.75 * base.kappa_1))
    else:
        A, D = random_stable_drift(rng), random_spd(rng)
    noises = np.concatenate([np.einsum("ij,ik->ijk", np.eye(8), np.eye(8)),
                             D[None]])
    solved_again = []
    kronecker = lyapunov._kronecker_solve

    def spy(a, d):
        solved_again.append(a.tobytes())
        return kronecker(a, d)

    monkeypatch.setattr(lyapunov, "_kronecker_solve", spy)
    replicated = solve_lyapunov(np.repeat(A[None], 9, axis=0), noises)
    retried = len(solved_again)
    assert (retried > 0) == exceptional
    for eig in (None, eigendecomposition(A[None])):
        solved_again.clear()
        V, residual = solve_lyapunov(A[None], noises, eig=eig)
        assert _bits(V) == _bits(replicated[0])
        assert _bits(residual) == _bits(replicated[1])
        assert solved_again == [A.tobytes()] * retried


def test_singular_slice_of_a_stack_is_nan():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    V, _ = solve_lyapunov(np.stack([-np.eye(2), rot]),
                          np.stack([np.eye(2)] * 2))
    assert V[0] == pytest.approx(0.5 * np.eye(2), abs=1e-14)
    assert np.isnan(V[1]).all()


def test_lyapunov_rejects_bad_shapes():
    with pytest.raises(ValueError):
        solve_lyapunov(np.eye(3)[None], np.eye(4)[None])


@pytest.mark.parametrize("n_a, n_d", [(2, 3), (3, 2), (2, 1), (0, 1)])
def test_lyapunov_rejects_mismatched_stack_lengths(n_a, n_d):
    # one A serves any number of noises; otherwise the lengths agree
    with pytest.raises(ValueError):
        solve_lyapunov(np.stack([-np.eye(2)] * n_a),
                       np.stack([np.eye(2)] * n_d))


def test_singular_system_is_nan():
    # marginal rotation: eigenvalue pair sums to zero
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.isnan(_solve(A, np.eye(2))).all()


def test_an_overflowing_kronecker_solution_is_nan(monkeypatch):
    # a regular system whose solution overflows: eigenvalue pair sums of
    # -2e-10 against a noise of 1e300.  LAPACK solves it without an
    # error, to a vector that is not finite, and the slice comes back NaN
    A, D = -1e-10 * np.eye(8), 1e300 * np.eye(8)
    K = np.kron(A, np.eye(8)) + np.kron(np.eye(8), A)
    assert not np.isfinite(np.linalg.solve(K, -D.reshape(-1))).all()
    assert np.isnan(lyapunov._kronecker_solve(A, D)).all()
    # the spectral solve overflows as well, and its retry is that solve
    retried = []
    kronecker = lyapunov._kronecker_solve

    def spy(a, d):
        retried.append(a.tobytes())
        return kronecker(a, d)

    monkeypatch.setattr(lyapunov, "_kronecker_solve", spy)
    V, residual = solve_lyapunov(A[None], D[None])
    assert retried == [A.tobytes()]
    assert np.isnan(V).all() and np.isnan(residual).all()


def test_residual_measures_errors(rng):
    A = random_stable_drift(rng)
    D = random_spd(rng)
    V = _solve(A, D)
    assert _residual(A, V, D) < 1e-12
    V_bad = V.copy()
    V_bad[0, 0] += 1e-3
    assert _residual(A, V_bad, D) > 1e-6
    assert _residual(np.zeros((2, 2)), np.zeros((2, 2)),
                     np.zeros((2, 2))) == 0.0


def test_lyapunov_linearity(rng):
    A = random_stable_drift(rng)
    D1, D2 = random_spd(rng), random_spd(rng)
    V_sum = _solve(A, D1 + D2)
    V_split = _solve(A, D1) + _solve(A, D2)
    assert np.abs(V_sum - V_split).max() < 1e-10 * np.abs(V_sum).max()


def test_lyapunov_scale_covariance(rng):
    A = random_stable_drift(rng)
    D = random_spd(rng)
    V = _solve(A, D)
    for s in (1e-3, 42.0, 1e6):
        V_s = _solve(s * A, s * D)
        assert np.abs(V_s - V).max() < 1e-10 * np.abs(V).max()


def test_lyapunov_matches_integration_on_random_instances(rng):
    for _ in range(5):
        A = random_stable_drift(rng)
        D = random_spd(rng)
        V = _solve(A, D)
        V_t = integrate_lyapunov(A, D)
        assert np.abs(V - V_t).max() < 1e-8


def test_eigenvector_inverse_once_per_run(monkeypatch, rng):
    # runs of identical slices, as a temperature sweep or a Tc search
    # gives, and a -0.0 twin, which is a different input
    S0, S1 = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
              for _ in range(2))
    S1[0, 0] = 0.0
    twin = S1.copy()
    twin[0, 0] = -0.0
    S = np.array([S0, S0, S0, S1, S1, twin, S0])
    inverted = []
    inv = np.linalg.inv

    def spy(M):
        inverted.append(len(M))
        return inv(M)

    monkeypatch.setattr(np.linalg, "inv", spy)
    Sinv = lyapunov._inverse(S)
    monkeypatch.undo()
    assert inverted == [4]
    for k in range(len(S)):
        assert Sinv[k].tobytes() == np.linalg.inv(S[k]).tobytes()


def test_eigenvalues_trivial_cases():
    diag = np.diag([3.0, -1.0, 0.5])
    assert sorted_complex(eigenvalues(diag)) == pytest.approx(
        sorted_complex([-1.0, 0.5, 3.0]))
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert sorted_complex(eigenvalues(rot)) == pytest.approx(
        sorted_complex([1j, -1j]))


def test_eigenvalues_construct_then_recover(rng):
    for _ in range(20):
        M, expected = random_spectrum_matrix(rng)
        got = sorted_complex(eigenvalues(M))
        assert np.abs(got - sorted_complex(expected)).max() < 1e-9


def test_eigenvalues_input_validation():
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues(np.eye(65))
    with pytest.raises(ValueError):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_symplectic_form_blocks():
    omega = symplectic_form(2)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert omega[:2, :2] == pytest.approx(block)
    assert omega[2:, 2:] == pytest.approx(block)
    assert omega[:2, 2:] == pytest.approx(np.zeros((2, 2)))
    assert omega.T == pytest.approx(-omega)


def test_physicality_of_simple_states():
    # vacuum saturates the uncertainty bound, thermal states exceed it
    least = physicality_min_eig(np.array([0.5, 2.5, 0.3])[:, None, None]
                                * np.eye(4))
    assert least[0] == pytest.approx(0.0, abs=1e-12)
    assert least[1] == pytest.approx(2.0, rel=1e-12)
    # sub-vacuum isotropic noise is unphysical
    assert least[2] < -0.1


@pytest.mark.parametrize("size", [2, 4, 8])
def test_physicality_form_is_built_once_per_size(size, rng):
    M = rng.normal(size=(5, size, size))
    V = M @ np.swapaxes(M, 1, 2) + 0.1 * np.eye(size)
    fresh = np.linalg.eigvalsh(V + 0.5j * symplectic_form(size // 2))
    assert physicality_min_eig(V).tobytes() == fresh.min(axis=-1).tobytes()
    form = lyapunov._half_symplectic_form(size)
    assert form is lyapunov._half_symplectic_form(size)
    assert not form.flags.writeable


# the rates and frequencies of a point, which set its time scale
_RATES = ("omega_b", "omega_1", "omega_2", "omega_m", "Delta_1", "Delta_2",
          "Delta_m", "kappa_1", "kappa_2", "kappa_m", "gain_g", "gamma_b",
          "g_ma", "J", "G_mb")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(unit=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
       power=st.integers(-20, 20))
def test_rescaling_every_rate_leaves_the_covariance_unchanged(unit, power):
    # time measured in other units: A and D scale by s = 2**power, V
    # does not; T scales too, so that hbar*omega/(k_B*T) keeps its bits
    base = reference_baseline()
    wb, k1 = base.omega_b, base.kappa_1
    params = base.with_(Delta_1=-2.0 * wb * unit[0],
                        Delta_2=-2.0 * wb * unit[0],
                        Delta_m=2.0 * wb * unit[1], J=4.0 * k1 * unit[2],
                        g_ma=5.0 * k1 * unit[3], G_mb=6.4 * k1 * unit[4],
                        gain_g=base.kappa_2 - (2.0 * unit[5] - 1.0) * k1,
                        temperature_T=0.3 * unit[6])
    s = 2.0 ** power
    scaled = params.with_(temperature_T=s * params.temperature_T,
                          **{name: s * getattr(params, name)
                             for name in _RATES})
    rec, rec_s = (evaluate_point(p, quantities=()) for p in (params, scaled))
    (A, D), (A_s, D_s) = map(point_matrices, (params, scaled))
    assert rec_s.stable == rec.stable
    if rec.stable:
        (V, V_s), _ = solve_lyapunov(np.stack([A, A_s]),
                                     np.stack([D, D_s]))
        assert np.abs(V_s - V).max() <= 1e-12 * np.abs(V).max()
