import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from magmech import lyapunov, sweep
from magmech.params import NUMERIC_FIELDS, TWO_PI
from magmech.sweep import (AMPLITUDE_COLUMNS, E_COLUMNS, MEASURE_COLUMNS,
                           ST_COLUMNS, SweepAxis, SweepSpec,
                           build_point_params, evaluate_point, figure_preset,
                           find_critical_temperature, grid_values,
                           normalize_quantities, record_to_dict,
                           render_records, run_sweep, stack_params)

from .oracles import bisect_critical_temperature, point_params


def small_spec(baseline, **kwargs):
    defaults = dict(
        base=baseline,
        axes=(SweepAxis("J", 1.5 * baseline.kappa_1,
                        2.5 * baseline.kappa_1, 3),),
        quantities=("E_a2m", "st_a2_to_m"),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_quantities_normalization():
    cols, amp = normalize_quantities(("all",))
    assert cols == MEASURE_COLUMNS
    assert not amp
    cols, amp = normalize_quantities(("st_a2_to_m", "amplitudes"))
    assert cols == ("E_a2m", "st_a2_to_m")
    assert amp
    cols, _ = normalize_quantities(("margin", "E_a1b"))
    assert cols == ("E_a1b",)
    with pytest.raises(ValueError):
        normalize_quantities(("E_zz",))


def test_axis_validation(baseline):
    with pytest.raises(ValueError):
        SweepAxis("not_a_field", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        SweepAxis("J", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        SweepSpec(base=baseline, axes=())
    with pytest.raises(ValueError):
        small_spec(baseline, links=(("nope", "Delta_1", 1.0),))


def test_quiet_passive_point_has_no_correlations(baseline):
    params = baseline.with_(J=0.0, g_ma=0.0, G_mb=0.0, gain_g=0.0,
                            temperature_T=0.0)
    rec = evaluate_point(params)
    assert rec.stable
    for col in E_COLUMNS:
        assert rec.measures[col] == 0.0
    for col in ST_COLUMNS:
        assert rec.measures[col] == 0.0
    assert rec.physicality > -1e-9


def test_baseline_point_distant_beats_near(baseline):
    rec = evaluate_point(baseline)
    assert rec.stable
    assert rec.measures["E_a2m"] > rec.measures["E_a1m"] > 0.0
    assert rec.lyap_residual < 1e-10
    assert any("negative diffusion" in w for w in rec.warnings)


def test_isolated_active_cavity_is_masked(baseline):
    rec = evaluate_point(baseline.with_(J=0.0))
    assert not rec.stable
    assert rec.margin > 0
    assert all(v is None for v in rec.measures.values())
    assert rec.physicality is None


def test_unphysical_pair_nulls_both_measure_kinds(baseline):
    # stable point in the indefinite-noise regime whose reduced (a2, m)
    # state has a complex partially-transposed symplectic spectrum:
    # neither entanglement nor steering may be reported for the pair
    params = baseline.with_(Delta_1=-0.12 * baseline.omega_b,
                            Delta_2=-0.12 * baseline.omega_b,
                            Delta_m=0.72 * baseline.omega_b)
    rec = evaluate_point(params, quantities=("st_a2_to_m", "st_m_to_a2"))
    assert rec.stable
    assert rec.measures["E_a2m"] is None
    assert rec.measures["st_a2_to_m"] is None
    assert rec.measures["st_m_to_a2"] is None
    assert any(w.startswith("pair a2-m") for w in rec.warnings)


def test_duplicated_point_grid_is_deterministic(baseline):
    spec = small_spec(baseline, axes=(
        SweepAxis("J", 2.0 * baseline.kappa_1, 2.0 * baseline.kappa_1, 2),))
    records = run_sweep(spec)
    assert len(records) == 2
    assert records[0].measures == records[1].measures
    assert records[0].axis_values == records[1].axis_values


def test_grid_row_major_order(baseline):
    spec = small_spec(baseline, axes=(
        SweepAxis("J", 1.0, 2.0, 2), SweepAxis("g_ma", 5.0, 7.0, 3)))
    values = grid_values(spec)
    assert values == [(1.0, 5.0), (1.0, 6.0), (1.0, 7.0),
                      (2.0, 5.0), (2.0, 6.0), (2.0, 7.0)]


def test_links_and_eta_axis(baseline):
    spec = SweepSpec(
        base=baseline,
        axes=(SweepAxis("Delta_1", -1.0 * baseline.omega_b, 0.0, 3),
              SweepAxis("eta", -0.5, 0.5, 3)),
        links=(("Delta_2", "Delta_1", -1.0),),
        quantities=("E_a2m",),
    )
    params = build_point_params(spec, (-0.4 * baseline.omega_b, -0.5))
    assert params.Delta_1 == pytest.approx(-0.4 * baseline.omega_b)
    assert params.Delta_2 == pytest.approx(0.4 * baseline.omega_b)
    assert params.gain_g == pytest.approx(
        baseline.kappa_2 + 0.5 * baseline.kappa_1)


def test_out_of_range_axis_points_are_flagged_not_fatal(baseline):
    # eta beyond kappa_2/kappa_1 would need negative gain; those grid
    # points must be flagged per-point, not abort the sweep
    spec = SweepSpec(base=baseline, axes=(SweepAxis("eta", 0.5, 1.5, 3),),
                     quantities=("E_a2m",))
    records = run_sweep(spec)
    assert len(records) == 3
    assert records[0].stable
    assert not records[2].stable
    assert any("invalid parameters" in w for w in records[2].warnings)


@pytest.mark.parametrize("mode", ["direct_g", "microscopic"])
@pytest.mark.parametrize("name", NUMERIC_FIELDS)
def test_sweep_of_any_field_through_zero_completes(baseline, name, mode):
    # from -2x to 2x the base value: the points that break a rule get
    # nulls and a warning instead of aborting the sweep
    base = baseline.with_(coupling_mode=mode, g_mb=TWO_PI * 0.2)
    value = getattr(base, name)
    spec = SweepSpec(base, (SweepAxis(name, -2.0 * value, 2.0 * value, 5),),
                     epsilon_d=1e14 if mode == "microscopic" else 0.0)
    records = run_sweep(spec)
    assert len(records) == 5
    for rec in records:
        if any("invalid parameters" in w for w in rec.warnings):
            assert not rec.stable
            assert all(v is None for v in rec.measures.values())
    if name in ("omega_1", "omega_2", "omega_m"):
        assert [rec.warnings for rec in records[:3]] == [(
            "invalid parameters at this point: omega_1, omega_2 and "
            "omega_m must be positive",)] * 3


def _stack_cases(baseline):
    k1 = baseline.kappa_1
    return {
        "fig2a": figure_preset("fig2a"),
        # link factor -1
        "fig5b": figure_preset("fig5b"),
        "eta": SweepSpec(baseline, (SweepAxis("J", 0.0, 4.0 * k1, 9),
                                    SweepAxis("eta", -1.0, 1.0, 201)),
                         links=(("kappa_m", "gain_g", 0.5),)),
        # three rules broken, several at some points: eta > 1 needs
        # negative gain, T < 0, and G_mb = -1e9 T < 0 for T > 0
        "out_of_range": SweepSpec(
            baseline, (SweepAxis("temperature_T", -0.01, 0.01, 5),
                       SweepAxis("eta", 0.5, 1.5, 5)),
            links=(("G_mb", "temperature_T", -1e9),)),
    }


@pytest.mark.parametrize("case", ["fig2a", "fig5b", "eta", "out_of_range"])
def test_param_stack_matches_point_by_point_replace(baseline, case):
    spec = _stack_cases(baseline)[case]
    points = grid_values(spec)
    stack = stack_params(spec, np.array(points))
    errors = stack.errors()
    refs = []
    for k, values in enumerate(points):
        try:
            refs.append(point_params(spec, values))
        except ValueError as exc:
            assert errors[k] == str(exc)
            refs.append(None)
            continue
        assert errors[k] is None
    valid = [k for k, ref in enumerate(refs) if ref is not None]
    assert valid
    for name in NUMERIC_FIELDS:
        want = np.array([getattr(refs[k], name) for k in valid])
        got = getattr(stack, name)[valid]
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    for k in valid[::97]:
        assert build_point_params(spec, points[k]) == refs[k]
    if case == "out_of_range":
        assert len(set(errors)) == 4  # None and the three rules
        with pytest.raises(ValueError, match="gain_g"):
            build_point_params(spec, points[-1])


def test_csv_keeps_nan_apart_from_null(baseline):
    # an overflowed direct_g drive: stable points whose mean-field
    # residual is a genuine NaN; eta > 1 is an invalid point, whose
    # residual is null
    spec = SweepSpec(baseline, (SweepAxis("eta", 0.5, 1.5, 3),),
                     quantities=("E_a2m",), epsilon_d=1e300)
    records = run_sweep(spec)
    assert records[0].stable and math.isnan(records[0].residual)
    assert records[2].residual is None
    lines = render_records(records, spec).splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert rows[0]["residual"] == "nan"
    assert rows[0]["E_a2m"] not in ("", "nan")
    assert rows[0]["E_a1b"] == ""
    assert rows[2]["residual"] == ""
    assert rows[2]["margin"] == ""
    jsonl = [json.loads(line) for line in render_records(
        records, replace(spec, output_format="jsonl")).splitlines()]
    assert math.isnan(jsonl[0]["residual"])
    assert jsonl[2]["residual"] is None


def test_csv_of_rows_equals_csv_of_table():
    spec = _microscopic_sweep()
    table = run_sweep(spec)
    assert render_records(list(table), spec) == render_records(table, spec)


def test_invalid_points_skip_the_steady_state(baseline, monkeypatch):
    # an invalid microscopic point would otherwise run the Picard loop
    # to its iteration limit before being masked
    sizes = []
    solve = sweep.solve_steady_states

    def spy(params, *args, **kwargs):
        sizes.append(len(params))
        return solve(params, *args, **kwargs)

    monkeypatch.setattr(sweep, "solve_steady_states", spy)
    spec = SweepSpec(base=baseline, axes=(SweepAxis("eta", 0.5, 1.5, 3),),
                     quantities=("E_a2m",))
    records = run_sweep(spec)
    assert sizes == [2]
    assert [r.stable for r in records] == [True, True, False]


def test_serial_and_parallel_runs_are_identical(baseline):
    spec = small_spec(baseline)
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=2)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.axis_values == b.axis_values
        assert a.measures == b.measures
        assert a.margin == b.margin


def test_csv_rendering(baseline):
    spec = small_spec(baseline)
    records = run_sweep(spec)
    text = render_records(records, spec)
    lines = text.strip().split("\n")
    assert len(lines) == 1 + len(records)
    header = lines[0].split(",")
    assert header[0] == "J"
    assert header[1] == "stable"
    assert header[-1] == "warnings"
    for col in MEASURE_COLUMNS:
        assert col in header
    # deterministic rendering
    assert text == render_records(records, spec)


def test_csv_unstable_rows_have_empty_measures(baseline):
    spec = SweepSpec(
        base=baseline.with_(J=0.0),
        axes=(SweepAxis("Delta_1", -baseline.omega_b, 0.0, 2),),
        quantities=("E_a2m",),
    )
    records = run_sweep(spec)
    assert all(not r.stable for r in records)
    text = render_records(records, spec)
    row = text.strip().split("\n")[1].split(",")
    header = text.strip().split("\n")[0].split(",")
    e_index = header.index("E_a2m")
    assert row[e_index] == ""
    assert row[header.index("stable")] == "false"


def test_jsonl_rendering(baseline):
    import json

    spec = small_spec(baseline, output_format="jsonl")
    records = run_sweep(spec)
    text = render_records(records, spec)
    lines = text.strip().split("\n")
    assert len(lines) == len(records)
    parsed = json.loads(lines[0])
    assert "measures" in parsed and "axes" in parsed


def test_amplitude_columns(baseline):
    spec = small_spec(baseline, quantities=("E_a2m", "amplitudes"))
    records = run_sweep(spec)
    text = render_records(records, spec)
    header = text.strip().split("\n")[0].split(",")
    for col in AMPLITUDE_COLUMNS:
        assert col in header


def test_critical_temperature_against_linear_scan(baseline):
    tc, warnings = find_critical_temperature(baseline, ("a2", "m"),
                                             t_max=0.5, coarse_points=26)
    # brute-force scan oracle
    temps = np.linspace(0.0, 0.5, 1001)
    scan_tc = 0.0
    for t in temps:
        rec = evaluate_point(baseline.with_(temperature_T=t),
                             quantities=("E_a2m",))
        value = rec.measures["E_a2m"] if rec.stable else None
        if value is not None and value > 1e-6:
            scan_tc = t
        else:
            break
    assert tc == pytest.approx(scan_tc, abs=2e-3)
    assert not warnings


def _microscopic_point(baseline):
    return baseline.with_(coupling_mode="microscopic",
                          g_mb=2.0 * math.pi * 0.2,
                          Delta_m=0.9 * baseline.omega_b)


@pytest.mark.parametrize("pair, options, microscopic", [
    (("a2", "m"), {}, False),
    (("a1", "m"), {}, False),
    # 8, 7 and 5 halvings: the last round of levels is partial
    (("a2", "m"), {"coarse_points": 11}, False),
    (("a2", "m"), {"coarse_points": 26}, False),
    (("a2", "m"), {"coarse_points": 81}, False),
    (("a2", "m"), {"tol_t": 1e-5}, False),
    # the bracket's width after two halvings, while a sibling bracket is
    # wider by rounding: the search must stop there, mid-round
    (("a2", "m"), {"tol_t": 0.012499999999999983}, False),
    (("a2", "m"), {"epsilon_d": 1e14}, True),
])
def test_critical_temperature_matches_sequential_bisection(
        baseline, pair, options, microscopic):
    params = _microscopic_point(baseline) if microscopic else baseline
    tc, warnings = find_critical_temperature(params, pair, **options)
    ref_tc, ref_warnings = bisect_critical_temperature(params, pair,
                                                       **options)
    assert repr(tc) == repr(ref_tc)
    assert warnings == ref_warnings


@pytest.mark.parametrize("quantities,n_pairs", [
    (("E_a2m",), 1), (("st_m_to_a2",), 1), (("st_a2_to_m", "st_m_to_a2"), 1),
    (("E_a1m", "st_a2_to_m", "st_m_to_a2", "st_b_to_a1"), 3)])
def test_four_determinants_per_pair_per_chunk(baseline, monkeypatch,
                                              quantities, n_pairs):
    # det A, det C, det B and det V of each requested pair, taken once
    # per chunk however many steering directions the pair reports
    calls = []
    det = np.linalg.det

    def spy(a):
        calls.append(a)
        return det(a)

    monkeypatch.setattr(sweep, "CHUNK_POINTS", 4)
    spec = small_spec(baseline, quantities=quantities, axes=(
        SweepAxis("J", 1.5 * baseline.kappa_1, 2.5 * baseline.kappa_1, 7),))
    monkeypatch.setattr(np.linalg, "det", spy)
    records = run_sweep(spec)
    # two chunks, of 4 and 3 points, every point stable
    assert all(r.stable for r in records)
    assert len(calls) == 4 * n_pairs * 2


def test_critical_temperature_search_is_three_stacked_evaluations(
        baseline, monkeypatch):
    sizes = []
    evaluate_chunk = sweep._evaluate_chunk

    def spy(params_seq, *args):
        sizes.append(len(params_seq))
        return evaluate_chunk(params_seq, *args)

    monkeypatch.setattr(sweep, "_evaluate_chunk", spy)
    find_critical_temperature(baseline, ("a2", "m"))
    # the coarse scan, then six halvings in two rounds of three levels
    assert sizes == [41, 7, 7]


def test_critical_temperature_requires_entanglement_at_zero(baseline):
    with pytest.raises(ValueError):
        find_critical_temperature(baseline, ("a1", "a2"), t_max=0.5,
                                  coarse_points=11)


def test_figure_presets_match_captions():
    spec = figure_preset("fig2a")
    assert spec.axes[0].name == "Delta_1"
    assert spec.axes[0].start == pytest.approx(-2 * spec.base.omega_b)
    assert spec.axes[0].stop == 0.0
    assert spec.axes[1].name == "eta"
    assert (spec.axes[1].start, spec.axes[1].stop) == (-1.0, 1.0)
    assert spec.base.Delta_m == pytest.approx(0.9 * spec.base.omega_b)
    assert spec.base.temperature_T == 0.015
    assert ("Delta_2", "Delta_1", 1.0) in spec.links

    fig3 = figure_preset("fig3")
    assert set(fig3.quantities) == {"st_a2_to_m", "st_m_to_a2"}
    assert fig3.base.gain_g == pytest.approx(1.5 * fig3.base.kappa_1)

    fig4c = figure_preset("fig4c")
    assert fig4c.axes[0].name == "G_mb"

    fig5b = figure_preset("fig5b")
    assert fig5b.base.Delta_1 == pytest.approx(0.06 * fig5b.base.omega_b)
    assert fig5b.base.Delta_m == pytest.approx(0.375 * fig5b.base.omega_b)
    assert ("Delta_2", "Delta_1", -1.0) in fig5b.links

    with pytest.raises(ValueError):
        figure_preset("fig99")


def test_fig4a_grid_is_denser():
    assert figure_preset("fig4a").axes[0].count == 401
    assert figure_preset("fig4b").axes[0].count == 201


def test_point_record_does_not_depend_on_its_chunk():
    # fig5a: all six pairs with steering, stable and unstable points
    spec = figure_preset("fig5a")
    names = spec.axis_names()
    records = run_sweep(spec)
    assert any(r.stable for r in records) and not all(r.stable
                                                      for r in records)
    for values, rec in zip(grid_values(spec), records):
        alone = evaluate_point(build_point_params(spec, values),
                               quantities=spec.quantities,
                               drift_mode=spec.drift_mode,
                               epsilon_d=spec.epsilon_d, axis_values=values)
        assert alone == rec
        # float repr round-trips, so equal text means equal bits
        assert (json.dumps(record_to_dict(alone, names))
                == json.dumps(record_to_dict(rec, names)))


def _microscopic_sweep():
    # the benchmark's microscopic sweep, thinned: the steady state is a
    # Picard loop here, and a band of Delta_m never converges
    base = figure_preset("fig2d").base
    base = base.with_(coupling_mode="microscopic", g_mb=2.0 * math.pi * 0.2)
    return SweepSpec(base, (SweepAxis("Delta_m", 0.0, 2.0 * base.omega_b,
                                      41),),
                     quantities=("E_a2m", "st_m_to_a2", "amplitudes"),
                     epsilon_d=1e15)


def test_csv_does_not_depend_on_chunk_size_or_workers(monkeypatch):
    for spec in (figure_preset("fig2d"), _microscopic_sweep()):
        texts = []
        for chunk in (1, 7, 64):
            monkeypatch.setattr(sweep, "CHUNK_POINTS", chunk)
            texts.append(render_records(run_sweep(spec), spec))
        texts.append(render_records(run_sweep(spec, jobs=2), spec))
        assert all(text == texts[0] for text in texts)

    # the microscopic sweep holds converged and unconverged points
    rows = texts[0].splitlines()[1:]
    assert any("did not converge" in row for row in rows)
    assert any(row.split(",")[1] == "true" for row in rows)


def test_exceptional_point_sweep(baseline, monkeypatch):
    # g_ma = 0 with equal detunings: the gain/loss cavity pair has an
    # exceptional point at J = |kappa_1 - (kappa_2 - g)| / 2 = 0.75 kappa_1,
    # where the eigenbasis of the drift matrix degenerates
    fallbacks = []
    kronecker = lyapunov._kronecker_solve

    def spy(A, D):
        fallbacks.append(A)
        return kronecker(A, D)

    monkeypatch.setattr(lyapunov, "_kronecker_solve", spy)
    k1 = baseline.kappa_1
    spec = SweepSpec(base=baseline.with_(g_ma=0.0),
                     axes=(SweepAxis("J", 0.70 * k1, 0.80 * k1, 2001),))
    records = run_sweep(spec)
    assert fallbacks
    stable = [r for r in records if r.stable]
    assert stable
    for rec in stable:
        assert rec.lyap_residual < 1e-10
        for value in rec.measures.values():
            assert (value is not None and math.isfinite(value)) \
                or rec.warnings

    # at the figure coupling the same window is unstable throughout
    records = run_sweep(replace(spec, base=baseline))
    assert not any(r.stable for r in records)
    assert all(r.margin > 0 for r in records)


# SHA-256 of the CSV text of these sweeps.  A change that moves values on
# purpose updates the digests and lists the points that moved.
CSV_DIGESTS = {
    "fig2d":
        "cadbeaac48a4bb74a72ece5dee53615d69eb7fafbbacdaa4f267682ae8a6ea66",
    "fig4a":
        "17b64c0f50edc34f6018db490f3f4edd78313142fe9b81c11b4d58a4b6577dbf",
    "fig5b":
        "0b8623edef7bdcfcc733fa461375307e064c97dcce1aed2c557e0fe06f87d68e",
    "fig7a":
        "9f3dc2c7fbad72907322e3521327071c6c0e7dcc679679b09d9fe0802c9c42a5",
    "microscopic":
        "5fae5162ceeca72116c8690970d2b774f043b671f6cc79556e7d18fb90809253",
}


@pytest.mark.parametrize("name", sorted(CSV_DIGESTS))
def test_csv_bytes_are_pinned(name):
    spec = (_microscopic_sweep() if name == "microscopic"
            else figure_preset(name))
    text = render_records(run_sweep(spec), spec)
    assert hashlib.sha256(text.encode()).hexdigest() == CSV_DIGESTS[name]
