import cmath
import math
import re
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmech import steady_state
from magmech.params import TWO_PI, effective_kappa_2, reference_baseline
from magmech.steady_state import (SteadyState, effective_coupling,
                                  solve_steady_states)
from magmech.sweep import evaluate_point

from .oracles import (drift_matrix_general, gauge_phase,
                      mean_field_cubic_roots, mean_field_residual,
                      picard_steady_state, stack_of, stacked_picard_loop)


@pytest.fixture
def micro(baseline):
    # microscopic coupling picked so the effective coupling lands near
    # the baseline G_mb at the drive strength used in these tests
    return baseline.with_(coupling_mode="microscopic", g_mb=TWO_PI * 0.2,
                          G_mb=0.0)


def test_undriven_system_is_empty(baseline):
    state = solve_steady_states(stack_of([baseline]))
    assert state.m_avg[0] == 0
    assert state.a1_avg[0] == 0
    assert state.a2_avg[0] == 0
    assert state.q_avg[0] == 0.0
    assert state.p_avg[0] == 0.0
    assert state.delta_eff[0] == baseline.Delta_m
    assert state.converged[0]


def test_decoupled_mechanics_single_linear_solve(baseline):
    params = baseline.with_(coupling_mode="microscopic", g_mb=0.0)
    eps = 1e12
    state = solve_steady_states(stack_of([params], epsilon_d=eps))
    assert state.iterations_used[0] == 0
    assert state.q_avg[0] == 0.0
    f1 = 1j * params.Delta_1 + params.kappa_1
    f2 = 1j * params.Delta_2 + effective_kappa_2(params)
    fm = 1j * params.Delta_m + params.kappa_m
    jj = params.J ** 2
    expected_m = eps * (jj + f1 * f2) / (fm * (jj + f1 * f2)
                                         + params.g_ma ** 2 * f2)
    assert state.m_avg[0] == pytest.approx(expected_m, rel=1e-12)


def test_microscopic_fixed_point_converges(micro):
    eps = 1e14
    state = solve_steady_states(stack_of([micro], epsilon_d=eps))
    assert state.converged[0]
    assert state.residual[0] < 1e-9
    assert state.p_avg[0] == 0.0
    # displacement self-consistency
    q_expected = -micro.g_mb * abs(state.m_avg[0]) ** 2 / micro.omega_b
    assert state.q_avg[0] == pytest.approx(q_expected, rel=1e-9)
    # one more iteration of the map does not move the detuning
    shift = abs(micro.Delta_m + micro.g_mb * q_expected - state.delta_eff[0])
    assert shift < 1e-12 * micro.omega_b


def test_cavity2_cross_relation(micro):
    # a2 = -i J a1 / f2 must hold with the net (gain-reduced) damping
    state = solve_steady_states(stack_of([micro], epsilon_d=5e13))
    f2 = 1j * micro.Delta_2 + effective_kappa_2(micro)
    assert state.a2_avg[0] == pytest.approx(
        -1j * micro.J * state.a1_avg[0] / f2, rel=1e-12)


def test_residual_detects_wrong_cavity2_damping(micro):
    # amplitudes computed as if the cavity-2 gain were absent fail the
    # zero-derivative equations of the actual system
    state_wrong = solve_steady_states(
        stack_of([micro.with_(gain_g=0.0)], epsilon_d=5e13))
    res = mean_field_residual([micro], state_wrong, 5e13)
    assert res[0] > 1e-3


def test_direct_g_skips_iteration(baseline):
    state = solve_steady_states(stack_of([baseline], epsilon_d=1e13))
    assert state.iterations_used[0] == 0
    assert state.delta_eff[0] == baseline.Delta_m
    assert state.residual[0] < 1e-12


def test_direct_and_microscopic_modes_agree(micro):
    eps = 1e14
    state = solve_steady_states(stack_of([micro], epsilon_d=eps))
    delta_eff = state.delta_eff[0]
    g_eff = abs(effective_coupling(micro.g_mb, state.m_avg[0]))
    direct = micro.with_(coupling_mode="direct_g", G_mb=g_eff,
                         Delta_m=delta_eff, g_mb=0.0)
    A_micro = drift_matrix_general(micro, delta_eff, g_eff)
    A_direct = drift_matrix_general(direct, direct.Delta_m, direct.G_mb)
    scale = np.abs(A_micro).max()
    assert np.abs(A_micro - A_direct).max() < 1e-12 * scale


def test_negative_drive_rejected(baseline):
    # the drive is shared by a stack, so each of its points breaks the rule
    stack = stack_of([baseline, baseline.with_(J=0.0)], epsilon_d=-1.0)
    assert stack.errors() == [
        "epsilon_d must be finite and non-negative, got -1.0"] * 2


def test_resonant_undamped_cavity2_stays_finite(baseline):
    # Delta_2 = 0 with exactly balanced gain: the cavity-2 response
    # denominator vanishes but the amplitudes have a finite limit
    params = baseline.with_(Delta_2=0.0, gain_g=baseline.kappa_2)
    eps = 1e13
    state = solve_steady_states(stack_of([params], epsilon_d=eps))
    m = state.m_avg[0]
    assert np.isfinite(abs(m))
    assert state.a1_avg[0] == 0
    assert state.a2_avg[0] == pytest.approx(-params.g_ma * m / params.J,
                                            rel=1e-12)
    assert state.residual[0] < 1e-12


def test_effective_coupling_examples():
    assert effective_coupling(1.0, 0.0) == 0.0
    g = effective_coupling(TWO_PI * 0.2, -2.5j)
    assert g == pytest.approx(math.sqrt(2) * TWO_PI * 0.2 * 2.5)
    assert abs(g.imag) < 1e-12
    # modulus is phase independent
    for phi in (0.3, 1.1, -2.0):
        rotated = effective_coupling(TWO_PI * 0.2, -2.5j * cmath.exp(1j * phi))
        assert abs(rotated) == pytest.approx(abs(g), rel=1e-12)


def test_gauge_phase_makes_coupling_real_positive(rng):
    for _ in range(20):
        m = complex(rng.normal(), rng.normal())
        if abs(m) < 1e-3:
            continue
        phi = gauge_phase(m)
        g = effective_coupling(0.7, m * cmath.exp(1j * phi))
        assert g.real > 0
        assert abs(g.imag) < 1e-12 * abs(g)
    assert gauge_phase(0.0) == 0.0


def _stop_error(params, slope):
    """The stop rule's own error: a last step below TOL_REL * omega_b /
    g_mb leaves a geometric tail of |F'| / (1 - |F'|) times it."""
    stop = steady_state.TOL_REL * params.omega_b / params.g_mb
    return 2.0 * stop * abs(slope) / (1.0 - abs(slope))


def test_a_monostable_point_takes_its_cubic_root(micro):
    # one real root, which attracts the damped map (|F'| < 1): the slice
    # takes it from the closed form without a Picard step, and the
    # scalar loop from q = 0 converges to it within the stop rule's own
    # error
    [(root, slope)] = mean_field_cubic_roots(micro, 1e14)
    assert abs(slope) < 1.0
    base = solve_steady_states(stack_of([micro], epsilon_d=1e14))
    assert base.converged[0]
    assert base.iterations_used[0] == 0
    assert base.residual[0] < 1e-13
    assert abs(base.q_avg[0] - root) <= 1e-12 * abs(root)
    ref = picard_steady_state(micro, 1e14)
    assert ref.converged and ref.iterations_used > 0
    assert abs(ref.q_avg - root) <= _stop_error(micro, slope)


def assert_matches_oracle(params_seq, epsilon_d):
    """The stacked solve agrees slice by slice with the scalar Picard
    loop, or with the mean-field cubic where it closes the cubic.  Where
    the oracle divides by zero, the slice fails with the oracle's text.
    Where it overflows, a slice with displacement feedback fails with
    ``mean field not finite``, and any other stands, converged, with a
    non-finite residual.  A microscopic slice whose oracle amplitude or
    detuning is not finite fails with ``mean field not finite``.  Where
    the cubic is solved, its real roots are the oracle's.  A slice with
    one real root is closed: 0 iterations, its root within 1e-12
    relative, and converged unless that root repels.  The oracle's loop
    does not converge on a repelling root, and where it converges on
    the closed root it is within the stop rule's own error of it.  Every
    other slice has no error, the oracle's converged flag and iteration
    count, and converged amplitudes within 1e-13 relative; a converged
    one sits on an attracting root."""
    state = solve_steady_states(stack_of(params_seq, epsilon_d=epsilon_d))
    for k, params in enumerate(params_seq):
        microscopic = params.coupling_mode == "microscopic"
        try:
            ref = picard_steady_state(params, epsilon_d)
        except ZeroDivisionError as exc:
            failed = str(exc)
        except OverflowError:
            if not (microscopic and params.g_mb):
                assert state.errors[k] is None and state.converged[k]
                assert not np.isfinite(state.residual[k])
                continue
            failed = "mean field not finite"
        else:
            finite = np.isfinite(ref.m_avg) and np.isfinite(ref.delta_eff)
            failed = (None if finite or not microscopic
                      else "mean field not finite")
        if failed is not None:
            assert state.errors[k] == failed
            assert not state.converged[k]
            continue
        assert state.errors[k] is None
        roots = (mean_field_cubic_roots(params, epsilon_d)
                 if state.real_roots[k] else [])
        assert len(roots) == state.real_roots[k]
        if len(roots) == 1:
            [(root, slope)] = roots
            repels = abs(slope) >= 1.0 + steady_state.REPEL_TOL
            assert state.iterations_used[k] == 0
            assert state.converged[k] == (not repels)
            assert abs(state.q_avg[k] - root) <= 1e-12 * abs(root)
            if repels:
                assert not ref.converged
            elif ref.converged:
                assert abs(ref.q_avg - state.q_avg[k]) <= max(
                    1e-9 * abs(root), _stop_error(params, slope))
            continue
        assert state.converged[k] == ref.converged
        assert state.iterations_used[k] == ref.iterations_used
        if not ref.converged:
            continue
        # within 1e-9 relative, or within the stop rule's own error
        if roots:
            assert any(abs(slope) < 1.0 and abs(state.q_avg[k] - r) <= max(
                1e-9 * abs(r), _stop_error(params, slope))
                for r, slope in roots)
        for got, want in ((state.m_avg[k], ref.m_avg),
                          (state.a1_avg[k], ref.a1_avg),
                          (state.a2_avg[k], ref.a2_avg),
                          (state.q_avg[k], ref.q_avg),
                          (state.delta_eff[k], ref.delta_eff)):
            if np.isfinite(want):
                assert abs(got - want) <= 1e-13 * abs(want)
            else:
                np.testing.assert_equal(got, want)
    return state


def test_stacked_solver_matches_scalar_oracle_on_micro_sweep_grid(micro):
    # the benchmark's microscopic sweep: its 153 one-root points are
    # closed, and the 132 of them whose root repels do not converge; the
    # 248 three-root points run the loop, and all of them converge
    grid = np.linspace(0.0, 2.0 * micro.omega_b, 401)
    state = assert_matches_oracle(
        [micro.with_(Delta_m=float(dm)) for dm in grid], 1e15)
    assert np.count_nonzero(~state.converged) == 132
    assert np.count_nonzero(state.iterations_used) == 248
    assert state.iterations_used.max() == 218
    assert np.bincount(state.real_roots).tolist() == [0, 153, 0, 248]


_WB = reference_baseline().omega_b
_K1 = reference_baseline().kappa_1
_MICRO_POINT = st.fixed_dictionaries({
    "Delta_1": st.floats(-2.0 * _WB, 2.0 * _WB),
    "Delta_2": st.floats(-2.0 * _WB, 2.0 * _WB),
    "Delta_m": st.floats(-2.0 * _WB, 2.0 * _WB),
    "gain_g": st.floats(0.0, 3.0 * _K1),
    "g_ma": st.floats(0.0, 5.0 * _K1),
    "J": st.floats(0.0, 4.0 * _K1),
    "g_mb": st.sampled_from([0.0, TWO_PI * 0.05, TWO_PI * 0.2, TWO_PI]),
})

_SWEPT_POINT = st.fixed_dictionaries({
    "Delta_m": st.floats(0.0, 2.0 * _WB),
    "g_mb": st.just(TWO_PI * 0.2),
})


# random points, and points of the benchmark's sweep near its drive of
# 1e15, which are multistable more often: over twelve seeds 9% to 34% of
# the drawn slices have three real roots, against about 1% of random
# points alone.  The tests below hold that share above 5%, so that the
# check of the Picard loop, which only these slices still run, cannot
# lapse unseen
_DRAWN_POINTS = st.lists(st.one_of(_MICRO_POINT, _SWEPT_POINT), min_size=1,
                         max_size=8)
_DRAWN_LOG_EPS = st.one_of(st.floats(14.9, 15.1), st.floats(11.0, 16.0))


def test_stacked_solver_matches_scalar_oracle_on_drawn_points():
    base = reference_baseline().with_(coupling_mode="microscopic",
                                      G_mb=0.0)
    roots = np.zeros(4, dtype=int)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(points=_DRAWN_POINTS, log_eps=_DRAWN_LOG_EPS)
    def check(points, log_eps):
        state = assert_matches_oracle([base.with_(**p) for p in points],
                                      10.0 ** log_eps)
        roots[:] += np.bincount(state.real_roots, minlength=4)

    check()
    assert roots[3] >= 0.05 * roots.sum()


def test_one_root_slices_are_closed_and_multistable_slices_loop():
    # the split of the solve: a one-root slice takes its closed-form
    # root, which balances the equations of motion to 1e-13 of the drive
    # and is the oracle's root to 1e-12; a three-root slice with an
    # attracting root has the bits of the oracle's loop run on the whole
    # stack, one-root slices and all
    base = reference_baseline().with_(coupling_mode="microscopic",
                                      G_mb=0.0)
    looped = np.zeros(2, dtype=int)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(points=_DRAWN_POINTS, log_eps=_DRAWN_LOG_EPS)
    def check(points, log_eps):
        params_seq = [base.with_(**point) for point in points]
        epsilon_d = 10.0 ** log_eps
        stack = stack_of(params_seq, epsilon_d=epsilon_d)
        state = solve_steady_states(stack)
        f = steady_state._response(stack)
        loop = stacked_picard_loop(stack, stack.g_mb, f.C, f.G,
                                   epsilon_d * f.C)
        for k in np.flatnonzero(state.real_roots):
            roots = mean_field_cubic_roots(params_seq[k], epsilon_d)
            if len(roots) == 1:
                [(root, _)] = roots
                assert state.iterations_used[k] == 0
                assert state.residual[k] < 1e-13
                assert abs(state.q_avg[k] - root) <= 1e-12 * abs(root)
            elif any(abs(slope) < 1.0 + steady_state.REPEL_TOL
                     for _, slope in roots):
                assert state.q_avg[k].tobytes() == loop[0][k].tobytes()
                assert state.iterations_used[k] == loop[1][k]
                assert state.converged[k] == loop[2][k]
        looped[:] += np.count_nonzero(state.iterations_used), len(stack)

    check()
    assert looped[0] >= 0.05 * looped[1]


def assert_three_roots_end_at_the_largest(params_seq, epsilon_d):
    """Wherever the oracle finds three real roots of a slice's mean-field
    cubic, all of them are negative, the largest, r3, has
    1/2 < F'(r3) < 1, and the package's Picard loop from q = 0 ends
    within the stop rule's own error of r3.  Returns the number of such
    slices."""
    state = solve_steady_states(stack_of(params_seq, epsilon_d=epsilon_d))
    three = 0
    for k, params in enumerate(params_seq):
        roots = (mean_field_cubic_roots(params, epsilon_d) if params.g_mb
                 else [])
        if len(roots) != 3:
            continue
        three += 1
        assert all(r < 0.0 for r, _ in roots)
        r3, slope = roots[-1]
        assert 0.5 < slope < 1.0
        assert state.converged[k] and state.iterations_used[k] > 0
        assert abs(state.q_avg[k] - r3) <= _stop_error(params, slope)
    return three


def test_three_real_roots_end_at_the_largest_on_drawn_points():
    # the proof that a three-root cubic's largest root attracts and is
    # the loop's limit, checked on the drawn points of the tests above
    base = reference_baseline().with_(coupling_mode="microscopic",
                                      G_mb=0.0)
    seen = np.zeros(2, dtype=int)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(points=_DRAWN_POINTS, log_eps=_DRAWN_LOG_EPS)
    def check(points, log_eps):
        three = assert_three_roots_end_at_the_largest(
            [base.with_(**p) for p in points], 10.0 ** log_eps)
        seen[:] += three, len(points)

    check()
    assert seen[0] >= 0.05 * seen[1]


def test_three_real_roots_end_at_the_largest_on_micro_sweep_grid(micro):
    grid = np.linspace(0.0, 2.0 * micro.omega_b, 401)
    assert assert_three_roots_end_at_the_largest(
        [micro.with_(Delta_m=float(dm)) for dm in grid], 1e15) == 248


def _resonant_loss(params):
    # Delta_1 = Delta_2 = 0 and net cavity-2 gain -J^2/kappa_1:
    # J^2 + f1*f2 = 0 divides in the closed form
    return params.with_(Delta_1=0.0, Delta_2=0.0,
                        gain_g=params.kappa_2 + params.J ** 2 / params.kappa_1)


_NOT_FINITE = "steady state singular: mean field not finite"


@pytest.mark.parametrize("case, epsilon_d, warning", [
    ("micro", 1e160, _NOT_FINITE),
    ("micro", 1e170, _NOT_FINITE),
    ("micro", 1e200, _NOT_FINITE),
    ("micro", 1e300, _NOT_FINITE),
    ("micro_resonant", 1e14, "steady state singular: complex division by zero"),
    ("direct_resonant", 1e14,
     "steady state singular: complex division by zero"),
])
def test_breakdown_points_keep_their_outcome(baseline, micro, case,
                                             epsilon_d, warning):
    params = {"micro": micro, "micro_resonant": _resonant_loss(micro),
              "direct_resonant": _resonant_loss(baseline)}[case]
    rec = evaluate_point(params.with_(epsilon_d=epsilon_d))
    assert not rec.stable
    assert rec.warnings == (warning,)
    assert all(v is None for v in rec.measures.values())
    assert_matches_oracle([params], epsilon_d)


@pytest.mark.parametrize("epsilon_d", [1e170, 1e200, 1e300])
def test_direct_mode_keeps_infinite_drive_point(baseline, epsilon_d):
    # direct_g amplitudes do not enter the fluctuations: an overflowed
    # drive leaves a NaN residual, which the record holds as null, on a
    # point that is still evaluated, with the measures of any other drive
    rec = evaluate_point(baseline.with_(epsilon_d=epsilon_d))
    assert rec.stable
    assert rec.residual is None
    assert rec.measures == evaluate_point(baseline).measures
    assert_matches_oracle([baseline], epsilon_d)
    assert "steady state residual not finite (residual nan)" in rec.warnings


def test_stacked_residual_matches_single(micro):
    # each slice's residual is bit-equal to that of the same point
    # solved as a one-point stack
    params_seq = [micro.with_(Delta_m=dm * micro.omega_b)
                  for dm in (0.2, 0.9, 1.5)]
    state = solve_steady_states(stack_of(params_seq, epsilon_d=5e13))
    stacked = mean_field_residual(params_seq, state, 5e13)
    np.testing.assert_array_equal(stacked, state.residual)
    for k, params in enumerate(params_seq):
        single = solve_steady_states(stack_of([params], epsilon_d=5e13))
        assert mean_field_residual([params], single, 5e13)[0] == stacked[k]


def assert_loop_is_the_oracle_loop(stack):
    """The solve gives the same bits in every SteadyState field, and the
    same errors, as with the oracle's copy of the earlier Picard loop."""
    state = solve_steady_states(stack)
    with mock.patch.object(steady_state, "_iterate", stacked_picard_loop):
        ref = solve_steady_states(stack)
    for f in fields(SteadyState)[:-1]:
        got, want = getattr(state, f.name), getattr(ref, f.name)
        assert got.dtype == want.dtype, f.name
        assert got.tobytes() == want.tobytes(), f.name
    assert state.errors == ref.errors
    return state


def test_picard_loop_is_the_oracle_loop_on_the_micro_sweep_grid(micro):
    grid = np.linspace(0.0, 2.0 * micro.omega_b, 401)
    state = assert_loop_is_the_oracle_loop(
        stack_of([micro.with_(Delta_m=float(dm)) for dm in grid],
                 epsilon_d=1e15))
    assert 0 < np.count_nonzero(~state.converged) < len(grid)


@pytest.mark.parametrize("epsilon_d", [0.0, 1e14, 1e170, 1e300])
@pytest.mark.parametrize("delta_m", [0.0, -0.0, 37.5, 1.5e308, math.inf,
                                     math.nan, "per_slice"])
def test_picard_loop_is_the_oracle_loop_on_breakdown_slices(micro, epsilon_d,
                                                            delta_m):
    # a C == 0 slice, a slice without feedback and two plain ones, under
    # no drive, a drive that overflows and one that does not, with the
    # last slice's Delta_m set to delta_m, or each slice's: 1.5e308 is
    # finite, but (kappa_m + i*Delta_m)*C is not.  Parameter validation
    # keeps such detunings out of a sweep, not out of the solver.
    stack = stack_of([micro, _resonant_loss(micro), micro.with_(g_mb=0.0),
                      micro.with_(Delta_m=0.3 * micro.omega_b)],
                     epsilon_d=epsilon_d)
    if delta_m == "per_slice":
        stack.Delta_m[:] = [0.0, -1.0, math.inf, math.nan]
    else:
        stack.Delta_m[-1] = delta_m
    assert_loop_is_the_oracle_loop(stack)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(_MICRO_POINT, st.floats(0.0, TWO_PI)).map(
           lambda pg: {**pg[0], "g_mb": pg[1]}), min_size=1, max_size=8),
       epsilon_d=st.one_of(st.floats(11.0, 16.0).map(lambda x: 10.0 ** x),
                           st.sampled_from([0.0, 1e170, 1e300])),
       resonant=st.booleans())
def test_picard_loop_is_the_oracle_loop_on_drawn_points(points, epsilon_d,
                                                        resonant):
    base = reference_baseline().with_(coupling_mode="microscopic",
                                      G_mb=0.0)
    params_seq = [base.with_(**point) for point in points]
    if resonant:
        params_seq.append(_resonant_loss(params_seq[0]))
    assert_loop_is_the_oracle_loop(stack_of(params_seq, epsilon_d=epsilon_d))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(epsilon_d=st.one_of(st.just(0.0), st.floats(0.0, 1e300)),
       g_mb=st.floats(-6.0, 1.0).map(lambda x: 10.0 ** x))
def test_a_converged_slice_has_a_finite_residual(epsilon_d, g_mb):
    # however small the drive, the residual of a converged slice is on
    # the scale of the drive and finite
    params = reference_baseline().with_(coupling_mode="microscopic",
                                        G_mb=0.0, g_mb=g_mb)
    state = solve_steady_states(stack_of([params], epsilon_d=epsilon_d))
    assert np.isfinite(state.residual[state.converged]).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mode=st.sampled_from(["direct_g", "microscopic"]),
       points=st.lists(st.tuples(
           st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
           st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(-2.0 * _WB, 2.0 * _WB))),
           min_size=1, max_size=5))
def test_an_undriven_stack_is_solved_in_closed_form(mode, points):
    # no drive, no loop: q = +0, zero amplitudes, residual 0, converged
    # after 0 iterations, and the detuning has the bits of
    # Delta_m + g*0.0, so Delta_m = -0.0 comes out as +0.0
    base = reference_baseline().with_(coupling_mode=mode)
    stack = stack_of([base.with_(g_mb=g, Delta_m=dm) for g, dm in points])
    with mock.patch.object(steady_state, "_iterate",
                           side_effect=AssertionError("loop entered")):
        state = solve_steady_states(stack)
    g = stack.g_mb if mode == "microscopic" else np.zeros(len(stack))
    assert (state.q_avg.tobytes() == state.p_avg.tobytes()
            == np.zeros(len(stack)).tobytes())
    assert state.residual.tobytes() == np.zeros(len(stack)).tobytes()
    for z in (state.m_avg, state.a1_avg, state.a2_avg):
        assert not z.any()
    assert state.converged.all()
    assert not state.iterations_used.any()
    assert not state.real_roots.any()
    assert state.errors == (None,) * len(stack)
    assert state.delta_eff.tobytes() == (stack.Delta_m + g * 0.0).tobytes()


def test_a_vanishing_drive_converges_with_a_small_residual(baseline):
    # the residual is relative to the drive, so at epsilon_d = 1e-300
    # every equation must balance on that scale: a loop that started
    # off q = 0 left |omega_b*q| behind and read 2.9e303
    params = baseline.with_(coupling_mode="microscopic", G_mb=0.0, g_mb=1.0)
    state = solve_steady_states(stack_of([params], epsilon_d=1e-300))
    assert state.converged[0]
    assert state.errors[0] is None
    assert state.residual[0] < 1e-9


@pytest.mark.parametrize("epsilon_d", [math.nan, math.inf, -math.inf, -1.0])
def test_drive_must_be_finite_and_non_negative(baseline, micro, epsilon_d):
    message = ("epsilon_d must be finite and non-negative, got "
               + re.escape(repr(epsilon_d)))
    for params in (baseline, micro):
        with pytest.raises(ValueError, match=f"^{message}$"):
            params.with_(epsilon_d=epsilon_d)
        stack = stack_of([params], epsilon_d=epsilon_d)
        assert re.fullmatch(message, stack.errors()[0])
