import cmath
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmech import reference_baseline
from magmech.dynamics import (TOL_STAB_REL, diffusion_matrices,
                              drift_matrices, format_matrix, mode_noises,
                              noise_matrices, stability)
from magmech.params import (DIFFUSION_CONVENTIONS, HBAR, K_B, TWO_PI,
                            ParamStack, thermal_occupation)
from magmech.steady_state import effective_coupling, solve_steady_states
from magmech.sweep import figure_preset, grid_values, stack_params

from .oracles import (drift_matrix_general, hurwitz_stable,
                      numerical_jacobian, point_params, quadrature_field,
                      stack_of)

# positions of structurally nonzero entries in the drift matrix
NONZERO = {
    (0, 0), (0, 1), (0, 3), (0, 5),
    (1, 0), (1, 1), (1, 2), (1, 4),
    (2, 1), (2, 2), (2, 3),
    (3, 0), (3, 2), (3, 3),
    (4, 1), (4, 4), (4, 5), (4, 6),
    (5, 0), (5, 4), (5, 5),
    (6, 7),
    (7, 5), (7, 6), (7, 7),
}


def _diffusion(params):
    """(D, warnings) of one parameter set, built as a one-point stack."""
    D, warnings = diffusion_matrices(stack_of([params]))
    return D[0], tuple(warnings.values())


def _stability(A, kappa_1):
    """(stable, margin, indeterminate) of one drift matrix."""
    report = stability(A[None], kappa_1)
    return report.stable[0], report.margin[0], report.indeterminate[0]


def test_full_decoupling_gives_block_diagonal(baseline):
    params = baseline.with_(J=0.0, g_ma=0.0, G_mb=0.0, gain_g=0.0)
    A = drift_matrix_general(params, params.Delta_m, 0.0)
    for i in range(4):
        block = A[2 * i:2 * i + 2, 2 * i:2 * i + 2]
        assert np.any(block != 0)
    off = A.copy()
    for i in range(4):
        off[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 0.0
    assert np.all(off == 0)
    # damped-rotation structure of the cavity/magnon blocks
    for i, (kappa, delta) in enumerate([
            (params.kappa_1, params.Delta_1),
            (params.kappa_2, params.Delta_2),
            (params.kappa_m, params.Delta_m)]):
        block = A[2 * i:2 * i + 2, 2 * i:2 * i + 2]
        assert block == pytest.approx(np.array([[-kappa, delta],
                                                [-delta, -kappa]]))


def test_zero_pattern(baseline):
    A = drift_matrix_general(baseline, baseline.Delta_m, baseline.G_mb)
    nonzero = {(i, j) for i in range(8) for j in range(8) if A[i, j] != 0}
    assert nonzero == NONZERO


def test_cavity_coupling_antisymmetry(baseline):
    A = drift_matrix_general(baseline, baseline.Delta_m, baseline.G_mb)
    assert A[0, 3] == pytest.approx(baseline.J)
    assert A[1, 2] == pytest.approx(-baseline.J)
    assert A[6, 7] == pytest.approx(baseline.omega_b)
    assert A[7, 7] == pytest.approx(-baseline.gamma_b)


def test_active_cavity_diagonal_entry(baseline):
    # eta = -0.5: the net cavity-2 damping entry is +0.5 kappa_1
    A = drift_matrix_general(baseline, baseline.Delta_m, baseline.G_mb)
    assert A[2, 2] == pytest.approx(0.5 * baseline.kappa_1)
    assert A[3, 3] == pytest.approx(0.5 * baseline.kappa_1)


def test_printed_variant_differs_in_exactly_two_places(baseline):
    derived, printed = (
        drift_matrices(stack_of([baseline], drift_mode=mode),
                       [baseline.Delta_m], [baseline.G_mb])[0]
        for mode in ("derived", "printed"))
    diff = {(i, j) for i in range(8) for j in range(8)
            if derived[i, j] != printed[i, j]}
    assert diff == {(2, 2), (3, 3), (5, 4)}
    assert printed[2, 2] == pytest.approx(-baseline.kappa_2)
    assert printed[5, 4] == pytest.approx(baseline.Delta_m)
    assert derived[5, 4] == pytest.approx(-baseline.Delta_m)


def test_drift_rejects_bad_arguments(baseline):
    # the drift mode is a rule of the parameters, which a point raises
    # and a stack names for each of its points
    message = "unknown drift mode 'bogus'"
    with pytest.raises(ValueError, match=f"^{message}$"):
        baseline.with_(drift_mode="bogus")
    assert stack_of([baseline], drift_mode="bogus").errors() == [message]


def test_drift_matches_numerical_linearization(baseline):
    """Jacobian of the nonlinear equations at the fixed point."""
    micro = baseline.with_(coupling_mode="microscopic", g_mb=TWO_PI * 0.2,
                           G_mb=0.0)
    eps = 1e14
    state = solve_steady_states(stack_of([micro], epsilon_d=eps))
    a1, a2, m = state.a1_avg[0], state.a2_avg[0], state.m_avg[0]
    g_complex = effective_coupling(micro.g_mb, m)
    A = drift_matrix_general(micro, state.delta_eff[0], g_complex)

    v0 = np.array([
        np.sqrt(2) * a1.real, np.sqrt(2) * a1.imag,
        np.sqrt(2) * a2.real, np.sqrt(2) * a2.imag,
        np.sqrt(2) * m.real, np.sqrt(2) * m.imag,
        state.q_avg[0], state.p_avg[0]])
    J = numerical_jacobian(lambda v: quadrature_field(micro, eps, v), v0,
                           step=1e-4)
    assert np.abs(A - J).max() < 1e-6 * np.abs(A).max()


def test_gauge_rotation_is_a_similarity(baseline, rng):
    """Rotating the magnon amplitude phase must not move the spectrum."""
    g0 = baseline.G_mb
    A0 = drift_matrix_general(baseline, baseline.Delta_m, complex(g0))
    ref = np.sort_complex(np.linalg.eigvals(A0))
    for theta in rng.uniform(-np.pi, np.pi, size=5):
        A = drift_matrix_general(baseline, baseline.Delta_m,
                                 g0 * cmath.exp(1j * theta))
        ev = np.sort_complex(np.linalg.eigvals(A))
        assert np.abs(ev - ref).max() < 1e-8 * np.abs(ref).max()


@pytest.mark.parametrize("convention", ["as_printed", "absolute_value",
                                        "physical_sum"])
def test_stacked_diffusion_matches_scalar_thermal_occupation(convention):
    # fig2d's temperature axis, where a vectorized expm1 may differ from
    # the C library's in the last bit
    spec = figure_preset("fig2d")
    spec = replace(spec, base=spec.base.with_(diffusion_convention=convention))
    points = grid_values(spec)
    D, warnings = diffusion_matrices(stack_params(spec, np.array(points)))
    for k, values in enumerate(points):
        p = point_params(spec, values)
        T = p.temperature_T
        n1, n2, nm, nb = (thermal_occupation(w, T) for w in
                          (p.omega_1, p.omega_2, p.omega_m, p.omega_b))
        k2t = p.kappa_2 - p.gain_g
        d2 = {"as_printed": k2t, "absolute_value": abs(k2t),
              "physical_sum": p.kappa_2 + p.gain_g}[convention] \
            * (2.0 * n2 + 1.0)
        c1 = p.kappa_1 * (2.0 * n1 + 1.0)
        cm = p.kappa_m * (2.0 * nm + 1.0)
        expected = [c1, c1, d2, d2, cm, cm, 0.0, p.gamma_b * (2.0 * nb + 1.0)]
        assert np.diag(D[k]).tolist() == expected
        assert np.count_nonzero(D[k]) == 7
        assert (k in warnings) == (convention == "as_printed")


@pytest.mark.parametrize("convention", ["as_printed", "absolute_value",
                                        "physical_sum"])
def test_diffusion_is_diagonal(baseline, convention):
    # the Tc search superposes one Lyapunov solution per diagonal entry,
    # which is exact only for diagonal noise: gains from passive to net
    # gain, temperatures from 0 to 2 K
    gains = np.repeat(np.linspace(0.0, 2.5, 11) * baseline.kappa_1, 11)
    temperatures = np.tile(np.linspace(0.0, 2.0, 11), 11)
    D, _ = diffusion_matrices(ParamStack.broadcast(
        baseline.with_(diffusion_convention=convention), 121,
        gain_g=gains, temperature_T=temperatures))
    diagonal = np.diagonal(D, axis1=1, axis2=2)
    assert np.array_equal(D, diagonal[:, :, None] * np.eye(8))


@pytest.mark.parametrize("convention", ["as_printed", "absolute_value",
                                        "physical_sum"])
@pytest.mark.parametrize("gain", [0.0, 1.5])  # passive, net gain 0.5 kappa_1
def test_noise_diagonals_are_the_diffusion_diagonals(baseline, convention,
                                                     gain):
    # the mode rates are the diagonals of the diffusion matrices, bit for
    # bit, T = 0 included: those of a stack at its own temperatures, and
    # of one point at the same temperatures as an array
    params = baseline.with_(diffusion_convention=convention,
                            gain_g=gain * baseline.kappa_1)
    temperatures = np.linspace(0.0, 2.0, 41)
    stack = ParamStack.broadcast(params, 41, temperature_T=temperatures)
    D, warnings = diffusion_matrices(stack)
    diagonal = np.diagonal(D, axis1=1, axis2=2)
    for rates in (mode_noises(stack, stack.temperature_T),
                  mode_noises(params, temperatures)):
        assert rates.shape == (41, 4)
        assert (np.ascontiguousarray(rates[:, [0, 0, 1, 1, 2, 2, 3]])
                .tobytes() == diagonal[:, [0, 1, 2, 3, 4, 5, 7]].tobytes())
        assert not diagonal[:, 6].any()
    negative = convention == "as_printed" and gain > 1.0
    assert (diagonal[:, 2] < 0).all() == negative
    assert list(warnings) == (list(range(41)) if negative else [])


_MODE_FREQUENCIES = ("omega_1", "omega_2", "omega_m", "omega_b")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_noise_diagonals_of_a_point_are_those_of_its_stack(data):
    # the mode rates of one point against an array of temperatures are
    # the bits of the stack of its copies at those temperatures, and of
    # the scalar formula; the four mode frequencies drawn equal or
    # distinct, the temperatures with 0, the smallest subnormal and x =
    # hbar omega / (k_B T) within a few ulps of 700
    base = reference_baseline()
    frequency = st.one_of(st.sampled_from([base.omega_1, base.omega_b]),
                          st.floats(1e3, 1e13))
    omegas = data.draw(st.lists(frequency, min_size=4, max_size=4))
    point = base.with_(
        **dict(zip(_MODE_FREQUENCIES, omegas)),
        diffusion_convention=data.draw(st.sampled_from(
            DIFFUSION_CONVENTIONS)),
        gain_g=data.draw(st.sampled_from([0.0, 0.5, 1.5])) * base.kappa_1)
    edge = st.builds(lambda w, k: HBAR * w / (K_B * 700.0)
                     * (1.0 + k * 2.0 ** -52),
                     st.sampled_from(omegas), st.integers(-4, 4))
    temperature = st.one_of(st.sampled_from([0.0, 5e-324]),
                            st.floats(0.0, 10.0), edge)
    temps = np.array(data.draw(st.lists(temperature, min_size=1,
                                        max_size=24)))
    rates = mode_noises(point, temps)
    assert rates.shape == (len(temps), 4)
    stack = ParamStack.broadcast(point, len(temps), temperature_T=temps)
    assert rates.tobytes() == mode_noises(stack,
                                          stack.temperature_T).tobytes()
    k2t = point.kappa_2 - point.gain_g
    rate_2 = {"as_printed": k2t, "absolute_value": abs(k2t),
              "physical_sum": point.kappa_2 + point.gain_g}[
        point.diffusion_convention]
    mode_rates = (point.kappa_1, rate_2, point.kappa_m, point.gamma_b)
    for t, row in zip(temps.tolist(), rates):
        expected = np.array([rate * (2.0 * thermal_occupation(w, t) + 1.0)
                             for rate, w in zip(mode_rates, omegas)])
        assert row.tobytes() == expected.tobytes()


def test_noise_matrices_put_each_rate_on_its_quadratures():
    # both quadratures of a1, a2 and m, the momentum of b, and nothing on
    # the mechanical position or off the diagonal
    rates = np.array([[1.0, 2.0, 3.0, 4.0], [-0.5, 0.0, 7.0, 1e-300]])
    D = noise_matrices(rates)
    assert D.shape == (2, 8, 8)
    for d, (w1, w2, wm, wb) in zip(D, rates.tolist()):
        assert d.tolist() == np.diag([w1, w1, w2, w2, wm, wm, 0.0,
                                      wb]).tolist()
    units = noise_matrices(np.eye(4))
    assert [np.flatnonzero(np.diagonal(u)).tolist() for u in units] \
        == [[0, 1], [2, 3], [4, 5], [7]]


def test_diffusion_vacuum_floor(baseline):
    params = baseline.with_(gain_g=0.0, temperature_T=0.0)
    D, warnings = _diffusion(params)
    expected = np.diag([params.kappa_1, params.kappa_1, params.kappa_2,
                        params.kappa_2, params.kappa_m, params.kappa_m,
                        0.0, params.gamma_b])
    assert D == pytest.approx(expected)
    assert warnings == ()


def test_diffusion_conventions_at_active_point(baseline):
    n2 = thermal_occupation(baseline.omega_2, baseline.temperature_T)
    expected_printed = -0.5 * baseline.kappa_1 * (2 * n2 + 1)

    D, warnings = _diffusion(baseline)
    assert D[2, 2] == pytest.approx(expected_printed)
    assert D[2, 2] < 0
    assert any("negative diffusion" in w for w in warnings)

    D_abs, w_abs = _diffusion(
        baseline.with_(diffusion_convention="absolute_value"))
    assert D_abs[2, 2] == pytest.approx(-expected_printed)
    assert w_abs == ()

    D_phys, _ = _diffusion(
        baseline.with_(diffusion_convention="physical_sum"))
    assert D_phys[2, 2] == pytest.approx(
        (baseline.kappa_2 + baseline.gain_g) * (2 * n2 + 1))


def test_diffusion_thermal_entries(baseline):
    hot = baseline.with_(temperature_T=0.1, gain_g=0.0)
    D, _ = _diffusion(hot)
    nb = thermal_occupation(hot.omega_b, 0.1)
    assert D[7, 7] == pytest.approx(hot.gamma_b * (2 * nb + 1))
    assert D[6, 6] == 0.0


def test_stability_trivial_cases(baseline):
    stable, margin, indeterminate = _stability(-np.eye(8), 1.0)
    assert stable
    assert margin == pytest.approx(-1.0)
    assert not indeterminate

    # isolated net-gain cavity diverges
    lonely = baseline.with_(J=0.0, g_ma=0.0)
    A = drift_matrix_general(lonely, lonely.Delta_m, lonely.G_mb)
    stable, margin, _ = _stability(A, lonely.kappa_1)
    assert not stable
    assert margin == pytest.approx(0.5 * lonely.kappa_1)


def test_stability_baseline_is_stable(baseline):
    A = drift_matrix_general(baseline, baseline.Delta_m, baseline.G_mb)
    stable, margin, _ = _stability(A, baseline.kappa_1)
    assert stable
    assert margin < 0


def test_a_margin_inside_the_tolerance_is_not_stable():
    # a spectrum within 1e-9 kappa_1 of the imaginary axis is too close
    # to call stable: roundoff of that size could put it either side
    kappa_1 = TWO_PI * 1e6
    A = np.repeat(-kappa_1 * np.eye(8)[None], 3, axis=0)
    A[:, 0, 0] = np.array([-2.0, -0.5, 0.0]) * 1e-9 * kappa_1
    report = stability(A, kappa_1)
    assert report.stable.tolist() == [True, False, False]
    assert report.margin.tolist() == A[:, 0, 0].tolist()


def _gate(spec, values, exact=False):
    """The stability gate's verdicts at the grid points ``values`` (N, 1)
    of a direct_g preset; with ``exact``, also the Routh-Hurwitz verdicts
    on the same drift matrices shifted by the gate's tolerance."""
    stack = stack_params(spec, values)
    A = drift_matrices(stack, stack.Delta_m, stack.G_mb)
    gate = stability(A, stack.kappa_1).stable.tolist()
    if not exact:
        return gate
    return gate, [hurwitz_stable(a, TOL_STAB_REL * k)
                  for a, k in zip(A, stack.kappa_1)]


# the stability boundary of each preset lies between these grid points
CROSSINGS = {"fig4a": 109, "fig4b": 170}


@pytest.mark.parametrize("name", sorted(CROSSINGS))
def test_stability_gate_matches_routh_hurwitz(name):
    spec = figure_preset(name)
    grid = np.array(grid_values(spec))
    gate, exact = _gate(spec, grid[::10], exact=True)
    assert gate == exact
    assert any(gate) and not all(gate)

    # bisect the gate's verdict between the two grid points down to
    # adjacent floats
    k = CROSSINGS[name]
    lo, hi = float(grid[k, 0]), float(grid[k + 1, 0])
    at_lo, at_hi = _gate(spec, np.array([[lo], [hi]]))
    assert at_lo != at_hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if _gate(spec, np.array([[mid]])) == [at_lo]:
            lo = mid
        else:
            hi = mid
    # 1e-6 relative on either side the margin is far above the rounding
    # of eig and the verdicts agree.  At lo and hi themselves the margin
    # is within that rounding, so eig's last bits decide the gate there
    # and the exact verdict may differ: no assertion at the crossing.
    gate, exact = _gate(spec, np.array([[lo * (1 - 1e-6)],
                                        [hi * (1 + 1e-6)]]), exact=True)
    assert gate == exact == [at_lo, at_hi]


def test_passive_uncoupled_blocks_are_damped(baseline):
    params = baseline.with_(gain_g=0.0, temperature_T=0.0, J=0.0,
                            g_ma=0.0, G_mb=0.0)
    D, _ = _diffusion(params)
    assert np.all(np.diag(D) >= 0)
    A = drift_matrix_general(params, params.Delta_m, 0.0)
    floor = -min(params.kappa_1, params.kappa_2, params.kappa_m,
                 params.gamma_b / 2)
    for i in range(4):
        block = A[2 * i:2 * i + 2, 2 * i:2 * i + 2]
        assert np.linalg.eigvals(block).real.max() <= floor + 1e-9


def test_spectrum_continuity_under_small_perturbations(baseline):
    from scipy.optimize import linear_sum_assignment

    A = drift_matrix_general(baseline, baseline.Delta_m, baseline.G_mb)
    ev = np.linalg.eigvals(A)
    for field in ("Delta_1", "Delta_m", "J", "g_ma", "G_mb"):
        bumped = baseline.with_(**{field: getattr(baseline, field) * 1.01})
        A2 = drift_matrix_general(bumped, bumped.Delta_m, bumped.G_mb)
        ev2 = np.linalg.eigvals(A2)
        cost = np.abs(ev[:, None] - ev2[None, :])
        rows, cols = linear_sum_assignment(cost)
        displacement = cost[rows, cols].max()
        assert displacement <= 20.0 * np.linalg.norm(A2 - A, 2)


def test_matrix_dump_roundtrip(baseline):
    A = drift_matrix_general(baseline, baseline.Delta_m, baseline.G_mb)
    text = format_matrix(A)
    parsed = np.array([[float(x) for x in line.split()]
                       for line in text.strip().splitlines()])
    assert parsed == pytest.approx(A, abs=0.0)
