import math

import mpmath
import numpy as np
import pytest

from magmech.dynamics import diffusion_matrix, drift_matrix
from magmech.lyapunov import solve_lyapunov
from magmech.measures import (PAIRS, PhysicalityError, log_negativity,
                              min_ptranspose_symplectic_eig, mode_indices,
                              reduce_pair, steering)
from magmech.sweep import figure_preset, grid_values

from .oracles import (random_physical_cm, stable_covariances,
                      symplectic_agreement, tmsv_cm)


@pytest.fixture
def baseline_cov(baseline):
    A = drift_matrix(baseline, baseline.Delta_m, baseline.G_mb)
    D, _ = diffusion_matrix(baseline)
    return solve_lyapunov(A, D)


def test_mode_indices():
    assert mode_indices("a1") == (0, 1)
    assert mode_indices("a2") == (2, 3)
    assert mode_indices("m") == (4, 5)
    assert mode_indices("b") == (6, 7)
    with pytest.raises(ValueError):
        mode_indices("c")


def test_reduce_block_diagonal_has_no_cross_block():
    V = np.diag(np.arange(1.0, 9.0))
    cm = reduce_pair(V, ("a1", "m"))
    assert cm == pytest.approx(np.diag([1.0, 2.0, 5.0, 6.0]))
    assert cm[:2, 2:] == pytest.approx(np.zeros((2, 2)))


def test_reduce_swap_is_a_permutation(baseline_cov):
    fwd = reduce_pair(baseline_cov, ("a1", "m"))
    back = reduce_pair(baseline_cov, ("m", "a1"))
    swap = np.zeros((4, 4))
    swap[0, 2] = swap[1, 3] = swap[2, 0] = swap[3, 1] = 1.0
    assert back == pytest.approx(swap @ fwd @ swap.T)


def test_reduce_rejects_identical_modes(baseline_cov):
    with pytest.raises(ValueError):
        reduce_pair(baseline_cov, ("m", "m"))


def test_product_of_thermal_states_is_separable():
    cm = np.diag([1.2, 1.2, 0.8, 0.8])
    assert log_negativity(cm) == 0.0
    assert steering(cm, "forward") == 0.0
    assert steering(cm, "backward") == 0.0


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_tmsv_closed_forms(r):
    cm = tmsv_cm(r)
    assert log_negativity(cm) == pytest.approx(2.0 * r, abs=1e-10)
    expected = math.log(math.cosh(2.0 * r))
    assert steering(cm, "forward") == pytest.approx(expected, abs=1e-10)
    assert steering(cm, "backward") == pytest.approx(expected, abs=1e-10)


def test_tmsv_symplectic_eigenvalue():
    nu = min_ptranspose_symplectic_eig(tmsv_cm(0.5))
    assert nu == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)


def test_dual_methods_agree_on_random_states(rng):
    cms = np.stack([random_physical_cm(rng) for _ in range(200)])
    nu, errors = min_ptranspose_symplectic_eig(cms)
    assert errors == [None] * len(cms)
    assert np.all(nu > 0)
    diff, allowance = symplectic_agreement(cms, nu)
    assert np.all(diff <= allowance)


def _exact_nu(cm):
    """Smallest partially-transposed symplectic eigenvalue at 50 digits
    from the float entries of the 4x4 CM, which mpmath holds exactly."""
    with mpmath.workdps(50):
        M = mpmath.matrix(cm.tolist())

        def det2(i, j):
            return M[i, j] * M[i + 1, j + 1] - M[i, j + 1] * M[i + 1, j]

        sigma = det2(0, 0) + det2(2, 2) - 2 * det2(0, 2)
        return mpmath.sqrt((sigma - mpmath.sqrt(sigma ** 2
                                                - 4 * mpmath.det(M))) / 2)


# (preset, pair, row-major grid indices, bound on |nu - exact|).  On
# fig2b, pairs a1-b and a2-b reach sigma ~ 6.8e7, where sigma -
# sqrt(disc) cancels: that form is off by up to 5.7e-9 there, the
# spectral route by up to 1.7e-13 and the package by up to 9.3e-15.  On
# fig3 the discriminant falls to ~ 4e-7 (a1-a2) and 1.2e-4 (a2-m), where
# sigma^2 - 4 det V cancels: with that discriminant the rationalised
# form is off by up to 8.2e-14, the spectral route by up to 6.3e-16 and
# the package, with the expanded discriminant, by up to 1.9e-16.
EXACT_CASES = [
    ("fig2b", ("a1", "b"), (7420, 3731, 1099), 2e-14),
    ("fig2b", ("a2", "b"), (7420, 3731, 1099), 2e-14),
    ("fig3", ("a1", "a2"), (917, 728, 1729, 1554, 1526, 133), 1e-15),
    ("fig3", ("a2", "m"), (39998, 39795), 1e-15),
]


@pytest.mark.parametrize("name,pair,indices,bound", EXACT_CASES)
def test_symplectic_eigenvalue_against_50_digits(name, pair, indices, bound):
    spec = figure_preset(name)
    values = np.array(grid_values(spec))[list(indices)]
    rows, V = stable_covariances(spec, values)
    assert len(rows) == len(indices)
    cms = reduce_pair(V, pair)
    nu, errors = min_ptranspose_symplectic_eig(cms)
    assert errors == [None] * len(cms)
    for cm, value in zip(cms, nu):
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(float(value)) - _exact_nu(cm)) <= bound


def test_swap_symmetry(baseline_cov):
    for pair in PAIRS:
        fwd = reduce_pair(baseline_cov, pair)
        back = reduce_pair(baseline_cov, pair[::-1])
        assert log_negativity(fwd) == pytest.approx(log_negativity(back),
                                                    abs=1e-12)
        assert steering(fwd, "forward") == pytest.approx(
            steering(back, "backward"), abs=1e-12)
        assert steering(fwd, "backward") == pytest.approx(
            steering(back, "forward"), abs=1e-12)


def test_local_rotation_invariance(rng):
    cm = tmsv_cm(0.7)
    base = log_negativity(cm)
    for theta in rng.uniform(-np.pi, np.pi, 10):
        R = np.array([[np.cos(theta), np.sin(theta)],
                      [-np.sin(theta), np.cos(theta)]])
        S = np.block([[R, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
        assert log_negativity(S @ cm @ S.T) == pytest.approx(base, abs=1e-10)


def test_local_noise_never_increases_entanglement():
    cm = tmsv_cm(0.8)
    values = [log_negativity(cm + t * np.eye(4))
              for t in np.linspace(0.0, 1.0, 11)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_roundoff_negative_clamps_to_zero():
    nu = 0.5 * (1.0 + 1e-13)
    cm = np.diag([nu, nu, nu, nu])
    assert log_negativity(cm) == 0.0


def test_physicality_errors():
    bad = np.diag([1.0, -0.1, 1.0, 1.0])
    with pytest.raises(PhysicalityError):
        steering(bad, "forward")
    with pytest.raises(ValueError):
        steering(tmsv_cm(0.1), "sideways")
    with pytest.raises(ValueError):
        log_negativity(np.eye(3))


def test_stacked_measures_match_single_calls(rng):
    cms = np.stack([random_physical_cm(rng) for _ in range(6)])
    e_values, e_errors = log_negativity(cms)
    s_values, s_errors = steering(cms, "backward")
    assert e_errors == s_errors == [None] * 6
    for k in range(6):
        assert e_values[k] == log_negativity(cms[k])
        assert s_values[k] == steering(cms[k], "backward")


def test_unphysical_slice_of_a_stack_is_null_with_message():
    bad = np.diag([1.0, -0.1, 1.0, 1.0])
    cms = np.stack([tmsv_cm(0.5), bad])
    values, errors = steering(cms, "forward")
    assert values[0] == pytest.approx(math.log(math.cosh(1.0)), abs=1e-10)
    assert errors[0] is None
    assert np.isnan(values[1])
    assert "non-positive" in errors[1]
    nu, errors = min_ptranspose_symplectic_eig(cms)
    assert nu[0] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)
    assert errors[0] is None
    assert np.isnan(nu[1]) and errors[1]


def test_steering_weaker_than_entanglement(baseline_cov):
    # any steerable pair of the reference state must also be entangled
    for pair in PAIRS:
        cm = reduce_pair(baseline_cov, pair)
        zf = steering(cm, "forward")
        zb = steering(cm, "backward")
        if max(zf, zb) > 1e-9:
            assert log_negativity(cm) > 0.0
