import math

import numpy as np
import pytest

from magmech.dynamics import diffusion_matrix, drift_matrix
from magmech.lyapunov import solve_lyapunov
from magmech.measures import (PAIRS, PhysicalityError, log_negativity,
                              min_ptranspose_symplectic_eig, mode_indices,
                              reduce_pair, steering)

from .oracles import random_physical_cm, tmsv_cm


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
    for _ in range(200):
        cm = random_physical_cm(rng)
        nu = min_ptranspose_symplectic_eig(cm)  # raises if methods differ
        assert nu > 0


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
