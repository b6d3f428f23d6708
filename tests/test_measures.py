import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from magmech.dynamics import diffusion_matrices
from magmech.lyapunov import solve_lyapunov
from magmech.measures import PAIRS, mode_indices, pair_measures, reduce_pair
from magmech.sweep import figure_preset, grid_values

from .oracles import (drift_matrix_general, random_physical_cm,
                      stable_covariances, stack_of, symplectic_agreement,
                      tmsv_cm)


@pytest.fixture
def baseline_cov(baseline):
    A = drift_matrix_general(baseline, baseline.Delta_m, baseline.G_mb)
    D, _ = diffusion_matrices(stack_of([baseline]))
    return solve_lyapunov(A[None], D)[0]


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


def _measures(cm):
    """(E_N, forward, backward, nu) of one CM, each with no screen
    failed."""
    found = pair_measures(cm[None])
    assert all(errors == [None] for _, errors in found)
    return [values[0] for values, _ in found]


def test_product_of_thermal_states_is_separable():
    cm = np.diag([1.2, 1.2, 0.8, 0.8])
    assert _measures(cm)[:3] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_tmsv_closed_forms(r):
    e_n, forward, backward, _ = _measures(tmsv_cm(r))
    assert e_n == pytest.approx(2.0 * r, abs=1e-10)
    expected = math.log(math.cosh(2.0 * r))
    assert forward == pytest.approx(expected, abs=1e-10)
    assert backward == pytest.approx(expected, abs=1e-10)


def test_tmsv_symplectic_eigenvalue():
    nu = _measures(tmsv_cm(0.5))[3]
    assert nu == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)


def test_dual_methods_agree_on_random_states(rng):
    cms = np.stack([random_physical_cm(rng) for _ in range(200)])
    nu, errors = pair_measures(cms).nu
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
    nu, errors = pair_measures(cms).nu
    assert errors == [None] * len(cms)
    for cm, value in zip(cms, nu):
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(float(value)) - _exact_nu(cm)) <= bound


def test_swap_symmetry(baseline_cov):
    for pair in PAIRS:
        e_fwd, fwd_forward, fwd_backward, _ = _measures(
            reduce_pair(baseline_cov, pair))
        e_back, back_forward, back_backward, _ = _measures(
            reduce_pair(baseline_cov, pair[::-1]))
        assert e_fwd == pytest.approx(e_back, abs=1e-12)
        assert fwd_forward == pytest.approx(back_backward, abs=1e-12)
        assert fwd_backward == pytest.approx(back_forward, abs=1e-12)


def test_local_rotation_invariance(rng):
    cm = tmsv_cm(0.7)
    base = _measures(cm)[0]
    for theta in rng.uniform(-np.pi, np.pi, 10):
        R = np.array([[np.cos(theta), np.sin(theta)],
                      [-np.sin(theta), np.cos(theta)]])
        S = np.block([[R, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
        assert _measures(S @ cm @ S.T)[0] == pytest.approx(base, abs=1e-10)


_UNIT = st.floats(-1.0, 1.0)


@st.composite
def two_mode_states(draw):
    """A physical two-mode CM: a thermal diagonal (occupations up to
    1.5) conjugated by the symplectic exp(Omega H), H symmetric with
    entries up to 0.6."""
    upper = np.array(draw(st.lists(_UNIT, min_size=10, max_size=10)))
    H = np.zeros((4, 4))
    H[np.triu_indices(4)] = 0.6 * upper
    H = H + np.triu(H, 1).T
    occupations = draw(st.lists(st.floats(0.0, 1.5), min_size=2, max_size=2))
    S = expm(np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]) @ H)
    return S @ np.diag(np.repeat(np.add(occupations, 0.5), 2)) @ S.T


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cm=two_mode_states())
def test_swapping_a_pair_swaps_the_steering_directions(cm):
    swap = np.zeros((4, 4))
    swap[0, 2] = swap[1, 3] = swap[2, 0] = swap[3, 1] = 1.0
    e_n, forward, backward, _ = _measures(cm)
    assert _measures(swap @ cm @ swap.T)[:3] == pytest.approx(
        [e_n, backward, forward], rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cm=two_mode_states(), phases=st.lists(st.floats(-math.pi, math.pi),
                                             min_size=2, max_size=2))
def test_local_phase_rotations_leave_the_measures_unchanged(cm, phases):
    R = np.zeros((4, 4))
    for k, theta in enumerate(phases):
        R[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [
            [math.cos(theta), math.sin(theta)],
            [-math.sin(theta), math.cos(theta)]]
    assert _measures(R @ cm @ R.T)[:3] == pytest.approx(
        _measures(cm)[:3], rel=1e-12, abs=1e-12)


def test_local_noise_never_increases_entanglement():
    cm = tmsv_cm(0.8)
    values = [_measures(cm + t * np.eye(4))[0]
              for t in np.linspace(0.0, 1.0, 11)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_roundoff_negative_clamps_to_zero():
    nu = 0.5 * (1.0 + 1e-13)
    cm = np.diag([nu, nu, nu, nu])
    assert _measures(cm)[0] == 0.0


def test_physicality_errors():
    bad = np.diag([1.0, -0.1, 1.0, 1.0])
    values, errors = pair_measures(bad[None]).forward
    assert np.isnan(values[0])
    assert errors == ["non-positive conditioning block determinant "
                      "-1.000e-01"]


def test_stacked_measures_match_single_calls(rng):
    # each slice, an unphysical one too, is bit-equal to the same slice
    # taken as a one-slice stack
    cms = np.stack([random_physical_cm(rng) for _ in range(6)]
                   + [np.diag([1.0, -0.1, 1.0, 1.0])])
    found = pair_measures(cms)
    assert found.log_negativity[1][:6] == found.backward[1][:6] == [None] * 6
    for k in range(7):
        for (values, errors), (alone, alone_errors) in zip(
                found, pair_measures(cms[k:k + 1])):
            assert values[k].tobytes() == alone[0].tobytes()
            assert errors[k] == alone_errors[0]


def test_unphysical_slice_of_a_stack_is_null_with_message():
    bad = np.diag([1.0, -0.1, 1.0, 1.0])
    cms = np.stack([tmsv_cm(0.5), bad])
    values, errors = pair_measures(cms).forward
    assert values[0] == pytest.approx(math.log(math.cosh(1.0)), abs=1e-10)
    assert errors[0] is None
    assert np.isnan(values[1])
    assert "non-positive" in errors[1]
    nu, errors = pair_measures(cms).nu
    assert nu[0] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)
    assert errors[0] is None
    assert np.isnan(nu[1]) and errors[1]


def test_steering_weaker_than_entanglement(baseline_cov):
    # any steerable pair of the reference state must also be entangled
    for pair in PAIRS:
        e_n, zf, zb, _ = _measures(reduce_pair(baseline_cov, pair))
        if max(zf, zb) > 1e-9:
            assert e_n > 0.0
