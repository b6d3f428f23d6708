import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmech.params import TWO_PI, effective_kappa_2, reference_baseline
from magmech.steady_state import effective_coupling, solve_steady_states
from magmech.sweep import evaluate_point

from .oracles import (drift_matrix_general, find_self_consistent_roots,
                      gauge_phase, mean_field_residual, picard_steady_state,
                      stack_of)


@pytest.fixture
def micro(baseline):
    # microscopic coupling picked so the effective coupling lands near
    # the baseline G_mb at the drive strength used in these tests
    return baseline.with_(coupling_mode="microscopic", g_mb=TWO_PI * 0.2,
                          G_mb=0.0)


def test_undriven_system_is_empty(baseline):
    state = solve_steady_states(stack_of([baseline]), 0.0)
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
    state = solve_steady_states(stack_of([params]), eps)
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
    state = solve_steady_states(stack_of([micro]), eps)
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
    state = solve_steady_states(stack_of([micro]), 5e13)
    f2 = 1j * micro.Delta_2 + effective_kappa_2(micro)
    assert state.a2_avg[0] == pytest.approx(
        -1j * micro.J * state.a1_avg[0] / f2, rel=1e-12)


def test_residual_detects_wrong_cavity2_damping(micro):
    # amplitudes computed as if the cavity-2 gain were absent fail the
    # zero-derivative equations of the actual system
    state_wrong = solve_steady_states(stack_of([micro.with_(gain_g=0.0)]),
                                      5e13)
    res = mean_field_residual([micro], state_wrong, 5e13)
    assert res[0] > 1e-3


def test_direct_g_skips_iteration(baseline):
    state = solve_steady_states(stack_of([baseline]), 1e13)
    assert state.iterations_used[0] == 0
    assert state.delta_eff[0] == baseline.Delta_m
    assert state.residual[0] < 1e-12


def test_direct_and_microscopic_modes_agree(micro):
    eps = 1e14
    state = solve_steady_states(stack_of([micro]), eps)
    delta_eff = state.delta_eff[0]
    g_eff = abs(effective_coupling(micro.g_mb, state.m_avg[0]))
    direct = micro.with_(coupling_mode="direct_g", G_mb=g_eff,
                         Delta_m=delta_eff, g_mb=0.0)
    A_micro = drift_matrix_general(micro, delta_eff, g_eff)
    A_direct = drift_matrix_general(direct, direct.Delta_m, direct.G_mb)
    scale = np.abs(A_micro).max()
    assert np.abs(A_micro - A_direct).max() < 1e-12 * scale


def test_negative_drive_rejected(baseline):
    with pytest.raises(ValueError):
        solve_steady_states(stack_of([baseline]), -1.0)


def test_resonant_undamped_cavity2_stays_finite(baseline):
    # Delta_2 = 0 with exactly balanced gain: the cavity-2 response
    # denominator vanishes but the amplitudes have a finite limit
    params = baseline.with_(Delta_2=0.0, gain_g=baseline.kappa_2)
    eps = 1e13
    state = solve_steady_states(stack_of([params]), eps)
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


def test_root_scan_monostable_points(micro):
    roots = find_self_consistent_roots(micro, 1e14, n_seeds=16)
    assert len(roots.q_avg) >= 1
    base = solve_steady_states(stack_of([micro]), 1e14)
    # first root is the branch connected to the undriven solution
    assert roots.q_avg[0] == pytest.approx(base.q_avg[0], rel=1e-9)
    assert roots.converged.all()
    assert (roots.residual < 1e-9).all()


def assert_matches_oracle(params_seq, epsilon_d, q_seed=0.0):
    """The stacked solve agrees with the scalar Picard loop slice by
    slice: same error, converged flag and iteration count, and converged
    amplitudes within 1e-13 relative."""
    state = solve_steady_states(stack_of(params_seq), epsilon_d,
                                q_seed=q_seed)
    seeds = np.broadcast_to(q_seed, (len(params_seq),))
    for k, params in enumerate(params_seq):
        try:
            ref = picard_steady_state(params, epsilon_d,
                                      q_seed=float(seeds[k]))
        except ArithmeticError as exc:
            assert type(state.errors[k]) is type(exc)
            assert str(state.errors[k]) == str(exc)
            assert not state.converged[k]
            continue
        assert state.errors[k] is None
        assert state.converged[k] == ref.converged
        assert state.iterations_used[k] == ref.iterations_used
        if not ref.converged:
            continue
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
    # the benchmark's microscopic sweep: a third of it never converges
    grid = np.linspace(0.0, 2.0 * micro.omega_b, 401)
    state = assert_matches_oracle(
        [micro.with_(Delta_m=float(dm)) for dm in grid], 1e15)
    assert 0 < np.count_nonzero(~state.converged) < len(grid)
    assert state.iterations_used.max() == 1000


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(points=st.lists(_MICRO_POINT, min_size=1, max_size=6),
       log_eps=st.floats(11.0, 16.0),
       seeds=st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
def test_stacked_solver_matches_scalar_oracle_on_drawn_points(points,
                                                              log_eps,
                                                              seeds):
    base = reference_baseline().with_(coupling_mode="microscopic",
                                      G_mb=0.0)
    params_seq = [base.with_(**point) for point in points]
    assert_matches_oracle(params_seq, 10.0 ** log_eps)
    assert_matches_oracle(params_seq, 10.0 ** log_eps,
                          q_seed=np.array(seeds[:len(points)]))


def _resonant_loss(params):
    # Delta_1 = Delta_2 = 0 and net cavity-2 gain -J^2/kappa_1:
    # J^2 + f1*f2 = 0 divides in the closed form
    return params.with_(Delta_1=0.0, Delta_2=0.0,
                        gain_g=params.kappa_2 + params.J ** 2 / params.kappa_1)


@pytest.mark.parametrize("case, epsilon_d, warning", [
    ("micro", 1e300, "steady state did not converge (residual nan)"),
    ("micro", 1e170,
     "steady state singular: (34, 'Numerical result out of range')"),
    ("direct", 1e170,
     "steady state singular: (34, 'Numerical result out of range')"),
    ("micro_resonant", 1e14, "steady state singular: complex division by zero"),
    ("direct_resonant", 1e14,
     "steady state singular: complex division by zero"),
])
def test_breakdown_points_keep_their_outcome(baseline, micro, case,
                                             epsilon_d, warning):
    params = {"micro": micro, "direct": baseline,
              "micro_resonant": _resonant_loss(micro),
              "direct_resonant": _resonant_loss(baseline)}[case]
    rec = evaluate_point(params, epsilon_d=epsilon_d)
    assert not rec.stable
    assert rec.warnings[0] == warning
    assert all(v is None for v in rec.measures.values())
    assert_matches_oracle([params], epsilon_d)


@pytest.mark.parametrize("q_seed", [math.inf, math.nan])
def test_non_finite_seed_does_not_converge(micro, q_seed):
    state = assert_matches_oracle([micro, micro], 1e14,
                                  q_seed=np.array([0.0, q_seed]))
    assert state.converged.tolist() == [True, False]
    assert state.iterations_used[1] == 1000


def test_direct_mode_keeps_infinite_drive_point(baseline):
    # direct_g amplitudes do not enter the fluctuations: an overflowed
    # drive leaves a NaN residual on a point that is still evaluated
    rec = evaluate_point(baseline, epsilon_d=1e300)
    assert rec.stable
    assert math.isnan(rec.residual)
    assert_matches_oracle([baseline], 1e300)
    assert "steady state residual not finite (residual nan)" in rec.warnings


def test_stacked_residual_matches_single(micro):
    # each slice's residual is bit-equal to that of the same point
    # solved as a one-point stack
    params_seq = [micro.with_(Delta_m=dm * micro.omega_b)
                  for dm in (0.2, 0.9, 1.5)]
    state = solve_steady_states(stack_of(params_seq), 5e13)
    stacked = mean_field_residual(params_seq, state, 5e13)
    np.testing.assert_array_equal(stacked, state.residual)
    for k, params in enumerate(params_seq):
        single = solve_steady_states(stack_of([params]), 5e13)
        assert mean_field_residual([params], single, 5e13)[0] == stacked[k]
