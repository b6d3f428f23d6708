import numpy as np
import pytest

from magmech import lyapunov
from magmech.dynamics import diffusion_matrices, stability
from magmech.lyapunov import (eigendecomposition, lyapunov_residual,
                              physicality_min_eig, solve_lyapunov,
                              symplectic_form)

from .oracles import (EigensolverError, drift_matrix_general, eigenvalues,
                      integrate_lyapunov, random_spd, random_spectrum_matrix,
                      random_stable_drift, sorted_complex, stack_of)


def _solve(A, D):
    """The solution of one system, solved as a one-slice stack."""
    return solve_lyapunov(A[None], D[None])[0]


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
    D = diffusion_matrices(stack_of([baseline]))[0][0]
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
    V = solve_lyapunov(A, D)
    res = lyapunov_residual(A, V, D)
    phys = physicality_min_eig(V)
    for k in range(5):
        one = slice(k, k + 1)
        assert V[k].tobytes() == solve_lyapunov(A[one], D[one])[0].tobytes()
        assert res[k] == lyapunov_residual(A[one], V[one], D[one])[0]
        assert phys[k] == physicality_min_eig(V[one])[0]
    assert res.max() < 1e-12


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


def test_singular_slice_of_a_stack_is_nan():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    V = solve_lyapunov(np.stack([-np.eye(2), rot]), np.stack([np.eye(2)] * 2))
    assert V[0] == pytest.approx(0.5 * np.eye(2), abs=1e-14)
    assert np.isnan(V[1]).all()


def test_lyapunov_rejects_bad_shapes():
    with pytest.raises(ValueError):
        solve_lyapunov(np.eye(3)[None], np.eye(4)[None])


def test_singular_system_is_nan():
    # marginal rotation: eigenvalue pair sums to zero
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.isnan(_solve(A, np.eye(2))).all()


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
