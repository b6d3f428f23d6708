import concurrent.futures
import contextlib
import hashlib
import json
import math
import multiprocessing
import re
import threading
from dataclasses import replace
from functools import partial
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmech import cli, dynamics, lyapunov, measures, sweep
from magmech.params import (NUMERIC_FIELDS, TWO_PI, ParamStack,
                            PhysicalParams, reference_baseline)
from magmech.sweep import (AMPLITUDE_COLUMNS, DIAGNOSTIC_COLUMNS, E_COLUMNS,
                           MEASURE_COLUMNS, ST_COLUMNS, SweepAxis, SweepSpec,
                           SweepTable, evaluate_point, figure_preset,
                           find_critical_temperature, grid_values,
                           normalize_quantities, point_matrices,
                           record_to_dict, render_records, run_sweep,
                           stack_params)

from .oracles import (TC_CURVES, bisect_critical_temperature,
                      build_point_params, csv_module_write_csv, eta_ratio,
                      mean_field_cubic_roots, point_params,
                      prescribe_tc_curve, report_warnings_by_point)


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


@pytest.mark.parametrize("start, stop", [
    (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
    # finite bounds whose difference overflows
    (-1e308, 1e308)])
def test_axis_values_must_be_finite(start, stop):
    # rejected without a RuntimeWarning from computing the values
    with pytest.raises(ValueError, match=re.escape(
            f"axis J from {start!r} to {stop!r} is not finite")):
        SweepAxis("J", start, stop, 3)


@pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan])
def test_link_factor_must_be_finite(baseline, factor):
    # a link that would set its field to a non-finite value at every
    # point is no sweep
    with pytest.raises(ValueError, match=re.escape(
            f"link Delta_2:Delta_1 factor {factor!r} is not finite")):
        small_spec(baseline, links=(("Delta_2", "Delta_1", factor),))


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


@pytest.mark.parametrize("axes, links, message", [
    (("J", "J"), (), "axis J sets J, which axis J already sets"),
    (("eta", "gain_g"), (), "axis gain_g sets gain_g, which axis eta "
                            "already sets"),
    (("gain_g", "eta"), (), "axis eta sets gain_g, which axis gain_g "
                            "already sets"),
    (("eta",), (("gain_g", "J"),),
     "link gain_g:J sets gain_g, which axis eta already sets"),
    (("J",), (("J", "g_ma"),), "link J:g_ma sets J, which axis J already "
                               "sets"),
    (("J",), (("Delta_2", "Delta_1"), ("Delta_2", "J")),
     "link Delta_2:J sets Delta_2, which link Delta_2:Delta_1 already "
     "sets"),
])
def test_axes_and_links_set_a_field_at_most_once(baseline, axes, links,
                                                 message):
    # a later setting would win silently, and the rows would carry axis
    # values that their points never had
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        small_spec(baseline,
                   axes=tuple(SweepAxis(name, 0.0, 1.0, 3) for name in axes),
                   links=tuple((t, s, 1.0) for t, s in links))


@pytest.mark.parametrize("axes, links, message", [
    # the link would read the base Delta_2 on every row
    (("J",), (("Delta_1", "Delta_2"), ("Delta_2", "J")),
     "link Delta_1:Delta_2 reads Delta_2, which link Delta_2:J sets "
     "later"),
    # eta takes gain_g from the base kappa_1 and kappa_2, so the rows'
    # eta labels would not be (kappa_2 - gain_g) / kappa_1
    (("kappa_2", "eta"), (), "axis eta reads kappa_2, which axis kappa_2 "
                             "sets in the same step"),
    (("eta", "kappa_1"), (), "axis eta reads kappa_1, which axis kappa_1 "
                             "sets in the same step"),
    (("eta",), (("kappa_2", "kappa_1"),),
     "axis eta reads kappa_2, which link kappa_2:kappa_1 sets later"),
])
def test_no_setting_reads_a_field_set_beside_or_after_it(baseline, axes,
                                                         links, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        small_spec(baseline,
                   axes=tuple(SweepAxis(name, 0.0, 1.0, 3) for name in axes),
                   links=tuple((t, s, 2.0) for t, s in links))


def test_a_link_may_read_the_gain_that_an_eta_axis_sets(baseline):
    # the eta axis is an earlier step than any link; an axis of another
    # field beside it keeps the rows' eta labels
    spec = small_spec(baseline, axes=(SweepAxis("eta", -1.0, 1.0, 3),
                                      SweepAxis("J", 1.0, 2.0, 2)),
                      links=(("g_ma", "gain_g", 1.0),))
    params = stack_params(spec, np.array(grid_values(spec)))
    assert eta_ratio(params).tolist() == pytest.approx([-1, -1, 0, 0, 1, 1])
    assert params.g_ma.tolist() == params.gain_g.tolist()


def test_links_may_read_an_axis_and_each_other(baseline):
    # a field set once may feed any number of links
    spec = small_spec(baseline, axes=(SweepAxis("J", 1.0, 2.0, 2),),
                      links=(("Delta_2", "J", 1.0), ("Delta_1", "J", 2.0),
                             ("g_ma", "Delta_2", 3.0)))
    params = stack_params(spec, np.array([[1.0], [2.0]]))
    assert params.Delta_1.tolist() == [2.0, 4.0]
    assert params.g_ma.tolist() == [3.0, 6.0]


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
    base = baseline.with_(coupling_mode=mode, g_mb=TWO_PI * 0.2,
                          epsilon_d=1e14 if mode == "microscopic" else 0.0)
    value = getattr(base, name)
    spec = SweepSpec(base, (SweepAxis(name, -2.0 * value, 2.0 * value, 5),))
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


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_non_finite_values_are_written_as_nulls(baseline, tmp_path):
    # an overflowed drive: in direct_g mode a stable point whose residual
    # and |a1|, |a2|, |m| are not finite, in microscopic mode a point whose
    # mean field is not finite; eta > 1 is an invalid point.  Each such
    # value is null, a warning says why, and every number written, as
    # CSV, JSON lines or the point's JSON, is finite
    warned = {"direct_g": "steady state residual not finite (residual nan)",
              "microscopic": "steady state singular: mean field not finite"}
    for mode, warning in warned.items():
        base = baseline.with_(coupling_mode=mode, g_mb=TWO_PI * 0.2,
                              epsilon_d=1e300)
        spec = SweepSpec(base, (SweepAxis("eta", 0.5, 1.5, 3),),
                         quantities=("all", "amplitudes"))
        records = run_sweep(spec)
        assert [r.residual for r in records] == [None] * 3
        assert [r.warnings for r in records[:2]] == [(warning,)] * 2
        assert records[0].stable == (mode == "direct_g")
        if mode == "direct_g":
            assert records[0].measures["E_a2m"] > 0.0
            assert records[0].amplitudes == (None, None, None, 0.0)
        lines = render_records(records, spec).splitlines()
        header = lines[0].split(",")
        numeric = [c for c in header if c not in ("stable", "warnings")]
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["residual"] == ""
            assert all(math.isfinite(float(row[c]))
                       for c in numeric if row[c]), line
        for line in render_records(
                records, replace(spec, output_format="jsonl")).splitlines():
            json.loads(line, parse_constant=_no_constant)
        config = tmp_path / f"{mode}.cfg"
        config.write_text("[system]\nunits = rad_s\nepsilon_d = 1e300\n"
                          + "".join(f"{name} = {getattr(base, name)!r}\n"
                                    for name in NUMERIC_FIELDS)
                          + f"coupling_mode = {mode}\n")
        out = tmp_path / f"{mode}.json"
        assert cli.main(["point", "--config", str(config),
                         "--out", str(out)]) == 0
        point = json.loads(out.read_text(), parse_constant=_no_constant)
        assert point["residual"] is None
        assert warning in point["warnings"]


def test_csv_of_rows_equals_csv_of_table():
    spec = _microscopic_sweep()
    table = run_sweep(spec)
    assert render_records(list(table), spec) == render_records(table, spec)


# a table holds finite values, and NaN for a null whatever its bits
_AXIS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 0.1, 1e300]))
_CELL = st.one_of(_AXIS, st.sampled_from([math.nan, -math.nan]))
_WARNING = st.text(st.sampled_from([",", '"', "\n", "\r", ";", " ", "\t", "a",
                                    "Z", "7", "(", "é", "Ω", "→"]),
                   max_size=8)


@st.composite
def _csv_tables(draw):
    """A table of drawn cells, NaN among them, and warnings, and a spec
    of one or two axes that requests drawn columns."""
    n_axes = draw(st.integers(1, 2))
    quantities = tuple(draw(st.lists(st.sampled_from(
        MEASURE_COLUMNS + ("amplitudes",)), max_size=4)))
    columns, with_amplitudes = normalize_quantities(quantities)
    n = draw(st.integers(0, 12))
    # a few values that recur
    pool = draw(st.lists(_CELL, min_size=1, max_size=3))
    cells = st.lists(st.one_of(_CELL, st.sampled_from(pool)),
                     min_size=n, max_size=n)
    axes = st.lists(_AXIS, min_size=n, max_size=n)
    names = DIAGNOSTIC_COLUMNS + columns + (AMPLITUDE_COLUMNS
                                            if with_amplitudes else ())
    table = SweepTable(
        np.array(draw(st.lists(axes, min_size=n_axes, max_size=n_axes)),
                 dtype=float).T.reshape(n, n_axes),
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                 dtype=bool),
        {c: np.array(draw(cells), dtype=float) for c in names},
        [draw(st.lists(_WARNING, max_size=3)) for _ in range(n)], columns,
        np.zeros(n, dtype=np.int64))
    spec = SweepSpec(reference_baseline(),
                     tuple(SweepAxis(name, 0.0, 1.0, 2)
                           for name in ("J", "eta")[:n_axes]),
                     quantities=quantities)
    return table, spec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_csv_tables(), as_rows=st.booleans())
def test_csv_writer_is_the_csv_module_writer_byte_for_byte(case, as_rows):
    table, spec = case
    records = list(table) if as_rows else table
    got, want = StringIO(), StringIO()
    sweep.write_csv(records, spec, got)
    csv_module_write_csv(records, spec, want)
    assert got.getvalue() == want.getvalue()


def test_csv_writer_formats_each_distinct_value_once(baseline):
    # -0.0 and 0.0 are distinct bit patterns, so each keeps its text;
    # a null is empty whatever the bits of its NaN
    table = SweepTable(np.array([[0.0], [-0.0], [0.0]]),
                       np.array([True, True, False]),
                       {c: np.array([-0.0, 0.0, -math.nan])
                        for c in DIAGNOSTIC_COLUMNS},
                       [["a,b", 'say "x"'], [], ["x\ry"]], (),
                       np.zeros(3, dtype=np.int64))
    spec = SweepSpec(baseline, (SweepAxis("J", 0.0, 1.0, 2),),
                     quantities=())
    buf = StringIO()
    sweep.write_csv(table, spec, buf)
    empty = "," * len(MEASURE_COLUMNS)
    assert buf.getvalue().split("\n")[1:] == [
        f"0,true{empty},-0,-0,-0,-0,\"a,b;say \"\"x\"\"\"",
        f"-0,true{empty},0,0,0,0,",
        f"0,false{empty},,,,,x\ry",
        ""]


# pieces of warnings texts: each character that the csv module may quote,
# CRLF, the separators of the warnings field and of a category, and
# non-ASCII text
_WARNING_TEXT = st.lists(st.sampled_from(
    [",", '"', "\r", "\n", "\r\n", ";", " (", ":", " ", ")", "a", "é", "→",
     "negative diffusion", "pair a2-m"]), max_size=5).map("".join)


def _recurring(element):
    """Lists of ``element``: an empty list, and elements that recur
    across the list, among them."""
    return st.lists(element, min_size=1, max_size=3).flatmap(
        lambda recurring: st.lists(st.one_of(st.sampled_from(recurring),
                                             element), max_size=12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(warnings=_recurring(st.lists(_WARNING_TEXT, max_size=3)),
       outcome=_recurring(st.integers(0, (1 << len(sweep.OUTCOMES)) - 1)))
def test_warnings_column_and_report_are_the_oracles_byte_for_byte(warnings,
                                                                   outcome):
    # the CSV against every row through csv.writer; the standard-error
    # report of the points' outcome bits against the count of each
    # point's categories in the warnings that the bits word
    n = len(warnings)
    table = SweepTable(np.arange(n, dtype=float).reshape(n, 1),
                       np.zeros(n, dtype=bool),
                       {c: np.full(n, math.nan) for c in DIAGNOSTIC_COLUMNS},
                       warnings, (), np.zeros(n, dtype=np.int64))
    spec = SweepSpec(reference_baseline(), (SweepAxis("J", 0.0, 1.0, 2),),
                     quantities=())
    got, want = StringIO(), StringIO()
    sweep.write_csv(table, spec, got)
    csv_module_write_csv(table, spec, want)
    assert got.getvalue() == want.getvalue()
    out = sweep._Outcomes(len(outcome))
    for bit in range(len(sweep.OUTCOMES)):
        out.set(bit, np.flatnonzero(np.array(outcome, dtype=np.int64)
                                    >> bit & 1))
    assert out.bits.tolist() == outcome
    got, want = StringIO(), StringIO()
    with contextlib.redirect_stderr(got):
        cli._report_warnings(outcome)
    report_warnings_by_point(sweep._warning_texts(out), want)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("seed", range(6))
def test_csv_numeric_cells_are_the_oracles_byte_for_byte(seed):
    # one block of numbers, formatted once per distinct bit pattern: -0.0,
    # subnormals, NaN of either sign and with payloads, and values shared
    # by columns, axes among them, each keep the text of "%.17g" alone
    rng = np.random.default_rng([seed, 1133])
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF0000000000001, 0xFFF0000000000123],
                    dtype=np.uint64).view(float)
    finite = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.0,
                              -1.0], rng.standard_normal(6)
                             * 10.0 ** rng.integers(-300, 300, 6)])
    pool = np.concatenate([finite, nans])
    n = int(rng.integers(0, 40))
    n_axes = 1 + seed % 2
    quantities = tuple(str(q) for q in rng.choice(
        MEASURE_COLUMNS + ("amplitudes",), 4))
    columns, with_amplitudes = normalize_quantities(quantities)
    names = DIAGNOSTIC_COLUMNS + columns + (AMPLITUDE_COLUMNS
                                            if with_amplitudes else ())
    table = SweepTable(rng.choice(finite, (n, n_axes)), rng.random(n) < 0.5,
                       {c: rng.choice(pool, n) for c in names},
                       [[] for _ in range(n)], columns,
                       np.zeros(n, dtype=np.int64))
    spec = SweepSpec(reference_baseline(),
                     tuple(SweepAxis(name, 0.0, 1.0, 2)
                           for name in ("J", "eta")[:n_axes]),
                     quantities=quantities)
    want = StringIO()
    csv_module_write_csv(table, spec, want)
    for records in (table, list(table)):
        got = StringIO()
        sweep.write_csv(records, spec, got)
        assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("epsilon_d", [math.nan, math.inf, -1.0])
def test_sweep_spec_drive_must_be_finite_and_non_negative(baseline,
                                                         epsilon_d):
    # a sweep's drive is that of its base, which rejects a bad one
    with pytest.raises(ValueError, match="^epsilon_d must be finite and "
                       f"non-negative, got {epsilon_d!r}$"):
        small_spec(baseline.with_(epsilon_d=epsilon_d))


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


def test_non_finite_points_are_invalid(baseline):
    # each is nulled by the validation rule, before any later stage can
    # null it with a warning of its own; the finite point is untouched
    n = 5
    stack = ParamStack.broadcast(baseline, n)
    stack.kappa_1[1] = np.nan
    stack.J[2] = np.inf
    stack.Delta_m[3] = np.nan
    stack.temperature_T[4] = np.inf
    table = sweep._evaluate_chunk(stack, stack.errors(), np.empty((n, 0)),
                                  ("E_a2m",))
    message = "invalid parameters at this point: all numeric parameters " \
              "must be finite"
    assert table.warnings[1:] == [[message]] * 4
    assert table.stable.tolist() == [True] + [False] * 4
    assert all(np.isnan(v[1:]).all() for v in table.values.values())
    assert table[0] == evaluate_point(baseline, quantities=("E_a2m",))


def test_serial_and_parallel_runs_are_identical(baseline, monkeypatch):
    spec = small_spec(baseline)
    serial = run_sweep(spec, jobs=1)
    # parts of one point, so that the three points run in a pool
    monkeypatch.setattr(sweep, "CHUNK_POINTS", 1)
    parallel = run_sweep(spec, jobs=2)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.axis_values == b.axis_values
        assert a.measures == b.measures
        assert a.margin == b.margin


def test_grid_of_one_part_runs_serially(monkeypatch):
    # fig5b's 201 points fit one part: a pool would give them all to one
    # worker
    def no_pool(*args, **kwargs):
        raise AssertionError("a grid of one part started a process pool")

    spec = figure_preset("fig5b")
    serial = render_records(run_sweep(spec), spec)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert len(grid_values(spec)) <= sweep.CHUNK_POINTS
    assert render_records(run_sweep(spec, jobs=2), spec) == serial


@pytest.mark.parametrize("jobs, workers", [(2, 2), (3, 3), (5000, 3)])
def test_pool_has_at_most_one_worker_per_part(baseline, monkeypatch, jobs,
                                              workers):
    # an in-process stand-in for the pool: a real one with 5000 workers
    # would start 5000 processes at its first submit
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, parts):
            return map(fn, parts)

    spec = small_spec(baseline)
    serial = render_records(run_sweep(spec), spec)
    # three parts of one point
    monkeypatch.setattr(sweep, "CHUNK_POINTS", 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    assert render_records(run_sweep(spec, jobs=jobs), spec) == serial
    assert started == [workers]


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_sweep_rejects_fewer_than_one_job(baseline, monkeypatch, jobs):
    # as the CLI's --jobs does, before a point is evaluated
    def evaluated(*args, **kwargs):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(sweep, "_evaluate_points", evaluated)
    with pytest.raises(ValueError,
                       match=f"^jobs must be at least 1, got {jobs}$"):
        run_sweep(small_spec(baseline), jobs=jobs)


def test_threaded_parts_join_in_grid_order(monkeypatch):
    # three usable CPUs and parts of 4: the calling thread evaluates parts
    # 0::3 and two worker threads the others, each under the caller's
    # np.errstate, and the tables come back in grid order, as on one CPU
    spec = figure_preset("fig2d")
    monkeypatch.setattr(sweep, "CHUNK_POINTS", 4)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 1)
    serial = render_records(run_sweep(spec), spec)
    evaluate, threads = sweep._evaluate_points, {}

    def spy(spec, values):
        threads[values[0, 0]] = threading.get_ident(), np.geterr()["over"]
        return evaluate(spec, values)

    monkeypatch.setattr(sweep, "_evaluate_points", spy)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)
    with np.errstate(over="ignore"):
        assert render_records(run_sweep(spec), spec) == serial
    starts = [v for v, in grid_values(spec)[::4]]
    assert sorted(threads) == starts
    caller = threading.get_ident()
    assert [threads[v] == (caller, "ignore") for v in starts] == [
        k % 3 == 0 for k in range(len(starts))]
    assert {over for _, over in threads.values()} == {"ignore"}


@pytest.mark.parametrize("failing", [0, 1])
def test_an_error_in_a_share_is_raised_after_every_share_ends(
        baseline, monkeypatch, failing):
    # two parts: part 0 on the calling thread, part 1 on the worker
    monkeypatch.setattr(sweep, "CHUNK_POINTS", 4)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    spec = small_spec(baseline, axes=(
        SweepAxis("J", 1.5 * baseline.kappa_1, 2.5 * baseline.kappa_1, 7),))
    starts = [v for v, in grid_values(spec)[::4]]
    evaluate, ended = sweep._evaluate_points, []

    def spy(spec, values):
        k = starts.index(values[0, 0])
        if k == failing:
            raise RuntimeError(f"part {k}")
        table = evaluate(spec, values)
        ended.append(k)
        return table

    monkeypatch.setattr(sweep, "_evaluate_points", spy)
    with pytest.raises(RuntimeError, match=f"^part {failing}$"):
        run_sweep(spec)
    assert ended == [1 - failing]


def _render_in_pipe(spec, pipe) -> None:
    pipe.send(render_records(run_sweep(spec), spec))
    pipe.close()


def test_a_fork_after_the_worker_threads_exist(baseline, monkeypatch):
    # a threaded run leaves a worker thread, which a forked process does
    # not inherit: the pool's workers still finish, and a forked child
    # makes a pool of its own instead of waiting on the parent's
    monkeypatch.setattr(sweep, "CHUNK_POINTS", 8)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    spec = small_spec(baseline, axes=(
        SweepAxis("J", 1.5 * baseline.kappa_1, 2.5 * baseline.kappa_1, 33),))
    threaded = run_sweep(spec)
    assert render_records(run_sweep(spec, jobs=2), spec) \
        == render_records(threaded, spec)
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=_render_in_pipe, args=(spec, send))
    child.start()
    try:
        assert receive.poll(60), "the forked child's sweep did not finish"
        assert receive.recv() == render_records(threaded, spec)
    finally:
        child.kill()
        child.join()


def test_a_point_that_misses_the_lyapunov_residual_gate_is_nulled():
    # fig2b at Delta_m = 0.1 omega_b, eta = 0 (row 2110) is stable, but
    # its Kronecker retry leaves a residual above the 1e-10 gate
    spec = figure_preset("fig2b")
    values = grid_values(spec)[2110]
    assert values == (0.1 * spec.base.omega_b, 0.0)
    params = build_point_params(spec, values)
    rec = evaluate_point(params, quantities=spec.quantities)
    A, D = point_matrices(params)
    _, residual = lyapunov.solve_lyapunov(A[None], D[None])
    assert lyapunov.RESIDUAL_MAX <= residual[0] < 2.0 * lyapunov.RESIDUAL_MAX
    assert rec.margin < 0.0
    assert not rec.stable
    assert rec.warnings == (f"Lyapunov residual not below 1e-10 "
                            f"(residual {residual[0]:.3e})",)
    assert rec.lyap_residual is None and rec.physicality is None
    assert all(v is None for v in rec.measures.values())


def _reported(outcome, capsys):
    """The standard-error lines that ``magmech`` prints for the outcome
    bits of a run."""
    capsys.readouterr()
    cli._report_warnings(outcome.tolist())
    return capsys.readouterr().err.splitlines()


def _assert_nulled(rec, warning, margin=True):
    """A record nulled after its stability gate: no measure, no solve
    diagnostics, the margin only where the gate decided, and the
    warning."""
    assert not rec.stable
    assert (rec.margin is not None) == margin
    assert rec.lyap_residual is None and rec.physicality is None
    assert all(v is None for v in rec.measures.values())
    assert warning in rec.warnings


def _three_point_sweep(baseline, monkeypatch, V_of_slice, **kwargs):
    """A three-point J sweep of the baseline, in which the Lyapunov solve
    gives ``V_of_slice(V[1])`` for the middle point, with the residual of
    the true solution."""
    solve = lyapunov.solve_lyapunov

    def patched(A, D, eig=None):
        V, residual = solve(A, D, eig=eig)
        V[1] = V_of_slice(V[1])
        return V, residual

    monkeypatch.setattr(lyapunov, "solve_lyapunov", patched)
    return run_sweep(small_spec(baseline, **kwargs))


def test_an_eigensolver_failure_nulls_only_its_point(baseline, monkeypatch,
                                                     capsys):
    # LAPACK fails on the middle point's drift matrix, which the gate
    # then leaves undecided: neither stable nor unstable, without margin
    spec = small_spec(baseline)
    J = grid_values(spec)[1][0]
    eig = np.linalg.eig

    def failing(stack):
        if (np.reshape(stack, (-1, 8, 8))[:, 0, 3] == J).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(stack)

    monkeypatch.setattr(np.linalg, "eig", failing)
    records = run_sweep(spec)
    assert [r.stable for r in records] == [True, False, True]
    _assert_nulled(records[1], "stability indeterminate: eigensolver failed",
                   margin=False)
    assert ("warning: stability indeterminate (1 point)"
            in _reported(records.outcome, capsys))


def test_a_singular_lyapunov_system_nulls_only_its_point(baseline,
                                                         monkeypatch, capsys):
    records = _three_point_sweep(baseline, monkeypatch,
                                 lambda V: np.full_like(V, np.nan))
    assert [r.stable for r in records] == [True, False, True]
    _assert_nulled(records[1], "singular Lyapunov system: no finite solution")
    assert ("warning: singular Lyapunov system (1 point)"
            in _reported(records.outcome, capsys))


def test_a_singular_unit_noise_system_leaves_no_critical_temperature(
        baseline, monkeypatch):
    # one of the four unit solutions without a finite value: the search
    # has no Tc, and says why with the kernel's warning
    solve = lyapunov.solve_lyapunov

    def patched(A, D, eig=None):
        V, residual = solve(A, D, eig=eig)
        V[3], residual[3] = np.nan, np.nan
        return V, residual

    assert find_critical_temperature(baseline, ("a2", "m"))[0] > 0.1
    monkeypatch.setattr(lyapunov, "solve_lyapunov", patched)
    warnings = []
    assert sweep._unit_noise_solutions(baseline, warnings) is None
    assert warnings == ["a unit-noise solution fails: singular Lyapunov "
                        "system: no finite solution"]
    with pytest.raises(ValueError, match=re.escape(
            "E_a2m undefined: a unit-noise solution fails: singular "
            "Lyapunov system: no finite solution; critical temperature "
            "undefined")):
        find_critical_temperature(baseline, ("a2", "m"))


def test_an_overflowing_solve_is_a_singular_lyapunov_system(capsys):
    # eigenvalue pair sums of -2e-10 against a noise of 1e300: both the
    # spectral solve and the Kronecker retry overflow, and the solution
    # falls
    A, D = -1e-10 * np.eye(8)[None], 1e300 * np.eye(8)[None]
    out = sweep._Outcomes(1)
    V, residual, stands = sweep._covariances(
        A, D, lyapunov.eigendecomposition(A), out, np.arange(1))
    assert np.isnan(V).all() and np.isnan(residual).all()
    assert stands.tolist() == [False]
    assert sweep._warning_texts(out) == [
        ["singular Lyapunov system: no finite solution"]]
    assert _reported(out.bits, capsys) == [
        "warning: singular Lyapunov system (1 point)"]


def test_a_steering_screen_nulls_its_direction_only(baseline, monkeypatch,
                                                    capsys):
    # the middle point's (a2, m) block: det A = 0 and det V = 300 > 0.
    # Its E_N is 0 and stands, its m -> a2 steering is 0, and a2 -> m,
    # conditioned on the singular a2 block, fails its screen.  The
    # baseline's noise is negative, so no physicality rule applies.
    def crafted(V):
        B = np.sqrt(30.0) * np.eye(2)
        V[2:6, 2:6] = np.block([[np.ones((2, 2)), B], [B, 10.0 * np.eye(2)]])
        return V

    records = _three_point_sweep(baseline, monkeypatch, crafted,
                                 quantities=("st_a2_to_m", "st_m_to_a2"))
    assert all(r.stable for r in records)
    rec = records[1]
    assert rec.measures == {"E_a2m": 0.0, "st_a2_to_m": None,
                            "st_m_to_a2": 0.0}
    assert ("st_a2_to_m: non-positive conditioning block determinant "
            "0.000e+00") in rec.warnings
    assert ("warning: st_a2_to_m (1 point)"
            in _reported(records.outcome, capsys))
    for other in (records[0], records[2]):
        assert all(v is not None for v in other.measures.values())


def _printed_absolute_value_draws(n, seed):
    """``n`` seeded draws around the baseline under the printed drift and
    absolute_value noise: detunings in +-2 omega_b, gain, J, g_ma and G_mb
    up to 4 kappa_1, kappa_2 and kappa_m a decade either way."""
    base = reference_baseline(drift_mode="printed",
                              diffusion_convention="absolute_value")
    rng = np.random.default_rng(seed)
    columns = {k: rng.uniform(-2.0, 2.0, n) * base.omega_b
               for k in ("Delta_1", "Delta_2", "Delta_m")}
    columns.update({k: rng.uniform(0.0, 4.0, n) * base.kappa_1
                    for k in ("gain_g", "J", "g_ma", "G_mb")})
    columns.update({k: getattr(base, k) * 10.0 ** rng.uniform(-1.0, 1.0, n)
                    for k in ("kappa_2", "kappa_m")})
    return ParamStack.broadcast(base, n, **columns)


def test_the_kernel_nulls_an_unphysical_covariance(capsys):
    # the printed drift matrix is no valid quantum Langevin drift: some
    # of its stable points solve to a V that no quantum state has, on
    # noise that is non-negative everywhere
    params = _printed_absolute_value_draws(400, seed=0)
    assert all(e is None for e in params.errors())
    table = sweep._evaluate_chunk(params, [None] * 400, np.empty((400, 0)),
                                  ("E_a1m", "st_m_to_a1"))
    stable = table.stable
    assert stable.any()
    assert (table.values["physicality"][stable]
            >= lyapunov.PHYSICALITY_MIN).all()
    nulled = [k for k, ws in enumerate(table.warnings)
              if any(w.startswith("unphysical covariance") for w in ws)]
    assert len(nulled) >= 5
    for k in nulled:
        rec = table[k]
        [warning] = [w for w in rec.warnings if w.startswith("unphysical")]
        least = float(re.fullmatch(
            r"unphysical covariance \(min eigenvalue (\S+)\)", warning)[1])
        assert least < lyapunov.PHYSICALITY_MIN
        _assert_nulled(rec, warning)
        assert rec.margin < 0.0
    assert (f"warning: unphysical covariance ({len(nulled)} points)"
            in _reported(table.outcome, capsys))


def test_the_tc_search_gates_its_unit_solutions_as_the_kernel_does():
    # fig2b at Delta_m = 0.1 omega_b, eta = 0 (row 2110): the kernel
    # nulls the point, for a Lyapunov residual above the gate; the unit
    # solutions of the mode noises miss the same gate, so the search has
    # no Tc either, and says so (the bare solve gave 0.094140625 K)
    spec = figure_preset("fig2b")
    params = build_point_params(spec, grid_values(spec)[2110])
    rec = evaluate_point(params)
    assert not rec.stable
    assert rec.warnings[0].startswith("Lyapunov residual not below 1e-10")
    assert sweep._unit_noise_solutions(params, []) is None
    with pytest.raises(ValueError, match=re.escape(
            "E_a1b undefined: a unit-noise solution fails: Lyapunov "
            "residual not below 1e-10 (residual ")):
        find_critical_temperature(params, ("a1", "b"))


@pytest.mark.parametrize("pair", [("a2", "m"), ("a1", "b"), ("a1", "m")])
def test_a_tc_search_names_the_gate_its_unit_solution_misses(pair):
    # fig3 row 17820 (Delta_1 = -1.12 omega_b, Delta_m = 1.32 omega_b):
    # the point stands with each pair entangled, while the mechanical unit
    # solution misses the residual gate; the search has no Tc and names
    # that gate instead of calling the pair unentangled
    spec = figure_preset("fig3")
    params = build_point_params(spec, grid_values(spec)[17820])
    rec = evaluate_point(params)
    assert rec.stable and rec.measures["E_%s%s" % pair] > 0.03
    assert rec.measures["E_a2m"] == pytest.approx(0.0694, abs=1e-4)
    with pytest.raises(ValueError, match="^" + re.escape(
            "E_%s%s undefined: a unit-noise solution fails: Lyapunov "
            "residual not below 1e-10 (residual 2.328e-10); critical "
            "temperature undefined" % pair) + "$"):
        find_critical_temperature(params, pair)


@pytest.mark.parametrize("name, row", [("fig2b", 7420), ("fig2b", 29369),
                                       ("fig3", 17820), ("fig6", 17820)])
def test_preset_points_whose_unit_solutions_miss_the_residual_gate(name,
                                                                   row):
    # within 30 rad/s of the stability boundary, a unit-noise solution's
    # residual misses the gate although the point's own solve passes it
    spec = figure_preset(name)
    params = build_point_params(spec, grid_values(spec)[row])
    *_, A, report = sweep._point_block(params)
    assert -30.0 < report.margin[0] < 0.0
    _, residual = lyapunov.solve_lyapunov(A, sweep._UNIT_NOISES, eig=(
        report.eigenvalues, report.eigenvectors))
    assert residual.max() >= lyapunov.RESIDUAL_MAX
    assert sweep._unit_noise_solutions(params, []) is None


@pytest.mark.parametrize("name", sorted(TC_CURVES))
def test_critical_temperature_warnings(baseline, monkeypatch, name):
    tc, expected = prescribe_tc_curve(monkeypatch, name)
    found, warnings = find_critical_temperature(baseline, ("a2", "m"))
    assert warnings == expected
    assert found == pytest.approx(tc, abs=sweep.TC_TOL_T)


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


def test_critical_temperature_against_linear_scan(baseline, monkeypatch):
    # 0.02 K between coarse points
    monkeypatch.setattr(sweep, "TC_COARSE_POINTS", 101)
    tc, warnings = find_critical_temperature(baseline, ("a2", "m"))
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


# the reference baseline's omega_b and kappa_1
_WB = TWO_PI * 10e6
_K1 = TWO_PI * 1e6


def _microscopic_point(baseline):
    return baseline.with_(coupling_mode="microscopic",
                          g_mb=2.0 * math.pi * 0.2,
                          Delta_m=0.9 * baseline.omega_b)


@pytest.mark.parametrize("pair, options, point", [
    (("a2", "m"), {}, False),
    (("a1", "m"), {}, False),
    # brackets of 0.2, 0.08 and 0.025 K: trees of 8, 7 and 5 halvings,
    # with 255, 127 and 31 midpoints
    (("a2", "m"), {"coarse_points": 11}, False),
    (("a2", "m"), {"coarse_points": 26}, False),
    (("a2", "m"), {"coarse_points": 81}, False),
    # with TC_TOL_T at 1e-5, a tree of 13 halvings and 8191 midpoints
    (("a2", "m"), {"tol_t": 1e-5}, False),
    # the bracket's width after two halvings, while a sibling bracket is
    # wider by rounding: the tree takes a third level, and the search
    # must stop above it, where its own bracket meets TC_TOL_T
    (("a2", "m"), {"tol_t": 0.012499999999999983}, False),
    (("a2", "m"), {"epsilon_d": 1e14}, True),
    # the other conventions, each at a point entangled at T = 0: a
    # net-gain cavity under absolute_value, a gain under physical_sum,
    # the printed drift matrix, and a net-gain as_printed point whose
    # cavity-2 noise entry is negative
    (("m", "b"), {}, dict(diffusion_convention="absolute_value",
                          Delta_1=-2.0 * _WB, Delta_2=-2.0 * _WB,
                          Delta_m=0.9 * _WB)),
    (("m", "b"), {}, dict(diffusion_convention="physical_sum",
                          gain_g=0.5 * _K1, Delta_1=1.1 * _WB,
                          Delta_2=1.1 * _WB, Delta_m=-0.4 * _WB)),
    (("a1", "b"), {"drift_mode": "printed"},
     dict(Delta_1=_WB, Delta_2=_WB, Delta_m=-0.1 * _WB)),
    (("a1", "m"), {}, dict(gain_g=1.25 * _K1)),
    # the whole 2 K range as the bracket: a tree of 11 halvings and 2047
    # midpoints
    (("a2", "m"), {"coarse_points": 2}, False),
])
def test_critical_temperature_matches_sequential_bisection(
        baseline, monkeypatch, pair, options, point):
    # ``point``: the baseline (False), the microscopic point (True) or
    # the baseline with the given changes; a ``coarse_points`` or
    # ``tol_t`` option is the search's TC_COARSE_POINTS or TC_TOL_T, and
    # an ``epsilon_d`` or ``drift_mode`` option a field of the point
    if isinstance(point, dict):
        params = baseline.with_(**point)
    else:
        params = _microscopic_point(baseline) if point else baseline
    fields = dict(options)
    search = {}
    for option, constant in (("coarse_points", "TC_COARSE_POINTS"),
                             ("tol_t", "TC_TOL_T")):
        if option in fields:
            search[option] = fields.pop(option)
            monkeypatch.setattr(sweep, constant, search[option])
    params = params.with_(**fields)
    tc, warnings = find_critical_temperature(params, pair)
    ref_tc, ref_warnings = bisect_critical_temperature(params, pair,
                                                       **search)
    assert repr(tc) == repr(ref_tc)
    assert warnings == ref_warnings


@pytest.mark.parametrize("quantities,n_pairs", [
    (("E_a2m",), 1), (("st_m_to_a2",), 1), (("st_a2_to_m", "st_m_to_a2"), 1),
    (("E_a1m", "st_a2_to_m", "st_m_to_a2", "st_b_to_a1"), 3)])
def test_four_determinants_per_pair_per_chunk(baseline, monkeypatch,
                                              quantities, n_pairs):
    # det A, det C, det B and det V, taken once per part on the stacked
    # reductions of every requested pair, however many pairs and steering
    # directions are requested: the three 2x2 blocks in one call, then
    # the 4x4 covariances
    calls = []
    det = np.linalg.det

    def spy(a):
        calls.append(a)
        return det(a)

    monkeypatch.setattr(sweep, "CHUNK_POINTS", 4)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    spec = small_spec(baseline, quantities=quantities, axes=(
        SweepAxis("J", 1.5 * baseline.kappa_1, 2.5 * baseline.kappa_1, 7),))
    monkeypatch.setattr(np.linalg, "det", spy)
    records = run_sweep(spec)
    # two parts, of 4 and 3 points, every point stable; they run on two
    # threads, whose calls may interleave
    assert all(r.stable for r in records)
    assert sorted(a.shape for a in calls) == sorted([(12 * n_pairs, 2, 2),
                                                     (4 * n_pairs, 4, 4),
                                                     (9 * n_pairs, 2, 2),
                                                     (3 * n_pairs, 4, 4)])


def test_a_pairs_columns_do_not_depend_on_the_other_pairs():
    # fig5b requests every pair; at three of its points two or more
    # pairs fail a screen
    spec = figure_preset("fig5b")
    together = run_sweep(spec)

    def about(pair, warnings):
        a, b = pair
        return [w for w in warnings if w.startswith(
            (f"pair {a}-{b}: ", f"st_{a}_to_{b}: ", f"st_{b}_to_{a}: "))]

    # the warnings of the stages before the measures, then each pair's
    expected = run_sweep(replace(spec, quantities=())).warnings
    for pair in measures.PAIRS:
        cols = tuple(c for c in MEASURE_COLUMNS
                     if sweep._PAIR_OF[c][0] == pair)
        alone = run_sweep(replace(spec, quantities=cols))
        for c in cols:
            assert together.values[c].tobytes() == alone.values[c].tobytes()
        for k, warnings in enumerate(alone.warnings):
            expected[k] += about(pair, warnings)
    assert together.warnings == expected
    assert sum(len([p for p in measures.PAIRS if about(p, w)]) >= 2
               for w in together.warnings) == 3


def test_critical_temperature_search_is_one_kernel_evaluation(
        baseline, monkeypatch):
    calls = {"kernel": [], "eig": [], "lyapunov": [], "diffusion": [],
             "noise": [], "pair_measures": [], "log_negativity": []}

    def spy(name, module, function, record=lambda stack, *_, **__:
            len(stack)):
        wrapped = getattr(module, function)

        def counted(*args, **kwargs):
            calls[name].append(record(*args, **kwargs))
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(module, function, counted)

    spy("kernel", sweep, "_evaluate_chunk")
    spy("eig", np.linalg, "eig")
    spy("lyapunov", lyapunov, "solve_lyapunov",
        lambda A, D, eig=None: (len(A), len(D), eig is not None))
    spy("diffusion", dynamics, "diffusion_matrices")
    spy("noise", dynamics, "mode_noises",
        lambda p, temperature: (type(p).__name__, len(temperature)))
    spy("pair_measures", measures, "pair_measures")
    spy("log_negativity", measures, "log_negativity")
    # at the baseline's net gain, where as_printed noise is negative
    find_critical_temperature(baseline, ("a2", "m"))
    # the point's one pass through the kernel is its gate: one
    # eigendecomposition of its drift matrix; the one solve of the four
    # unit mode noises is given that one matrix and its decomposition;
    # then the mode rates of the point at the coarse scan's temperatures
    # and at the 63 midpoints of the bracket's halving tree, and E_N
    # alone at each: no noise matrices, no parameter stacks and no
    # steering
    assert calls == {"kernel": [], "eig": [1], "lyapunov": [(1, 4, True)],
                     "diffusion": [],
                     "noise": [("PhysicalParams", 41), ("PhysicalParams", 63)],
                     "pair_measures": [], "log_negativity": [41, 63]}


@pytest.mark.parametrize("coarse_points, midpoints",
                         [(2, 2047), (11, 255), (26, 127), (81, 31)])
def test_critical_temperature_search_makes_two_log_negativity_calls(
        baseline, monkeypatch, coarse_points, midpoints):
    # the coarse scan, then the whole halving tree of its bracket,
    # however many halvings the bracket needs
    sizes = []
    log_negativity = measures.log_negativity

    def spy(covariances):
        sizes.append(len(covariances))
        return log_negativity(covariances)

    monkeypatch.setattr(measures, "log_negativity", spy)
    monkeypatch.setattr(sweep, "TC_COARSE_POINTS", coarse_points)
    find_critical_temperature(baseline, ("a2", "m"))
    assert sizes == [coarse_points, midpoints]


def _spy_on_validation(monkeypatch):
    """The lengths of the stacks that :meth:`ParamStack.errors` checks."""
    sizes = []
    errors = ParamStack.errors

    def spy(stack):
        sizes.append(len(stack))
        return errors(stack)

    monkeypatch.setattr(ParamStack, "errors", spy)
    return sizes


@pytest.mark.parametrize("entry", [
    partial(evaluate_point, quantities=("E_a2m",)), point_matrices,
    partial(find_critical_temperature, pair=("a2", "m"))],
    ids=["evaluate_point", "point_matrices", "find_critical_temperature"])
def test_a_single_point_is_not_validated_again(baseline, monkeypatch,
                                               entry):
    # the point validated itself when it was built, and its one-point
    # stack tells the kernel so
    sizes = _spy_on_validation(monkeypatch)
    entry(baseline)
    assert sizes == []


def test_a_serial_sweep_validates_each_part_once(baseline, monkeypatch):
    # one check of each part of the grid, before its steady state; the
    # 8x8 stages check nothing again
    monkeypatch.setattr(sweep, "CHUNK_POINTS", 4)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    spec = small_spec(baseline, axes=(SweepAxis("eta", 0.5, 1.5, 11),))
    sizes = _spy_on_validation(monkeypatch)
    records = run_sweep(spec)
    # parts 0 and 2 on the calling thread, part 1 on the other
    assert sorted(sizes) == [3, 4, 4]
    # eta above 1 takes a negative gain
    assert [any(w.startswith("invalid parameters") for w in r.warnings)
            for r in records] == [False] * 6 + [True] * 5


def test_critical_temperature_builds_no_second_point(baseline, monkeypatch):
    # the search's temperatures never pass through a copy of the point
    built = []
    post_init = PhysicalParams.__post_init__

    def spy(point):
        built.append(point)
        post_init(point)

    monkeypatch.setattr(PhysicalParams, "__post_init__", spy)
    find_critical_temperature(baseline, ("a2", "m"))
    assert built == []


@pytest.mark.parametrize("convention", ["as_printed", "absolute_value",
                                        "physical_sum"])
@pytest.mark.parametrize("changes, drift_mode", [
    ({"gain_g": 0.0}, "derived"),
    ({}, "derived"),  # net gain 0.5 kappa_1
    (dict(Delta_1=_WB, Delta_2=_WB, Delta_m=-0.1 * _WB), "printed"),
])
def test_unit_noise_superposition_matches_the_kernel(
        baseline, convention, changes, drift_mode):
    # V(T) = sum_k w_k(T) V_k against the kernel's own solve at each
    # temperature, for every pair
    params = baseline.with_(diffusion_convention=convention,
                            drift_mode=drift_mode, **changes)
    temperatures = np.linspace(0.0, 2.0, 41)
    stack = ParamStack.broadcast(params, 41, temperature_T=temperatures)
    table = sweep._evaluate_chunk(stack, stack.errors(), np.empty((41, 0)),
                                  E_COLUMNS)
    solutions = sweep._unit_noise_solutions(params, [])
    # the kernel also nulls a solution of non-negative noise that is no
    # quantum covariance, which the superposition does not judge: under
    # the printed drift with absolute_value noise, below 0.35 K
    unphysical = np.array([any(w.startswith("unphysical covariance")
                               for w in ws) for ws in table.warnings])
    assert np.array_equal(table.stable, ~unphysical)
    shown = (drift_mode, convention) == ("printed", "absolute_value")
    assert unphysical.tolist() == [shown and t < 0.35 for t in temperatures]
    stable = table.stable
    for column, pair in zip(E_COLUMNS, measures.PAIRS):
        values = sweep._superposed_log_negativity(
            params, measures.reduce_pair(solutions, pair),
            temperatures)[stable]
        null = np.isnan(values)
        assert np.array_equal(null, np.isnan(table.values[column][stable]))
        expected = table.values[column][stable][~null]
        assert np.all(np.abs(values[~null] - expected)
                      <= 1e-12 * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize("n", [1, 2, 41, 63])
def test_superposition_adds_the_unit_noises_in_index_order(baseline, n):
    # w_a1 V_a1 + w_a2 V_a2 + w_m V_m + w_b V_b added left to right, bit
    # for bit, at every size of a stack of temperatures, one included
    basis = measures.reduce_pair(
        sweep._unit_noise_solutions(baseline, []), ("a2", "m"))
    assert basis.shape == (4, 4, 4)
    temperatures = np.linspace(0.0, 0.3, n)
    rates = dynamics.mode_noises(baseline, temperatures)
    cms = rates[:, 0, None, None] * basis[0]
    for k in range(1, 4):
        cms = cms + rates[:, k, None, None] * basis[k]
    expected, screen, _ = measures.log_negativity(cms)
    values = sweep._superposed_log_negativity(baseline, basis, temperatures)
    assert values.tobytes() == expected.tobytes()
    assert np.isnan(values).tolist() == (screen > 0).tolist()


def test_unstable_point_has_no_unit_noise_solutions(baseline):
    # an unstable point is not entangled at any temperature
    params = baseline.with_(gain_g=2.5 * baseline.kappa_1)
    assert not evaluate_point(params).stable
    assert sweep._unit_noise_solutions(params, []) is None
    # the search says why it has no Tc: the point's margin
    with pytest.raises(ValueError, match="^" + re.escape(
            "E_a2m undefined: unstable (margin 3.198e+06 rad/s); critical "
            "temperature undefined") + "$"):
        find_critical_temperature(params, ("a2", "m"))


@pytest.mark.parametrize("k", [3, 15])
def test_unconverged_point_has_no_unit_noise_solutions(k, monkeypatch):
    # the ends of the unconverged band of the microscopic sweep:
    # the gate's mean-field rule, not a kernel record, nulls the point,
    # before its drift matrix is classified (which would null it too)
    spec = _microscopic_sweep()
    params = build_point_params(spec, grid_values(spec)[k])
    record = evaluate_point(params, quantities=())
    assert any(w.startswith("steady state did not converge")
               for w in record.warnings)
    classified = []
    stability = dynamics.stability

    def spy(A, kappa_1):
        classified.append(len(A))
        return stability(A, kappa_1)

    monkeypatch.setattr(dynamics, "stability", spy)
    warnings = []
    assert sweep._unit_noise_solutions(params, warnings) is None
    assert classified == []
    # the search says why it has no Tc: the gate's warning
    assert warnings == [w for w in record.warnings
                        if w.startswith("steady state did not converge")]
    with pytest.raises(ValueError, match="^" + re.escape(
            f"E_a2m undefined: {warnings[0]}; critical temperature "
            "undefined") + "$"):
        find_critical_temperature(params, ("a2", "m"))


@pytest.mark.parametrize("pair", [("a2", "m"), ("a1", "m")])
def test_critical_temperature_takes_a_pair_in_either_order(baseline, pair):
    forward = find_critical_temperature(baseline, pair)
    assert repr(find_critical_temperature(baseline, pair[::-1])) \
        == repr(forward)
    assert find_critical_temperature(baseline, list(pair[::-1])) == forward


def test_critical_temperature_requires_entanglement_at_zero(baseline,
                                                            monkeypatch):
    monkeypatch.setattr(sweep, "TC_COARSE_POINTS", 11)
    with pytest.raises(ValueError, match="^E_a1a2 is not positive at T = 0"):
        find_critical_temperature(baseline, ("a1", "a2"))


@pytest.mark.parametrize("pair", [("a1", "a1"), ("a1", "x")])
def test_critical_temperature_names_an_unknown_pair(baseline, monkeypatch,
                                                    pair):
    # the pair itself, not a measure column the caller never named, and
    # before the search evaluates anything
    def unreachable(*args, **kwargs):
        raise AssertionError("the search evaluated something")

    monkeypatch.setattr(sweep, "_gate", unreachable)
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'unknown mode pair {pair!r}')}$"):
        find_critical_temperature(baseline, pair)


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
        alone = replace(evaluate_point(build_point_params(spec, values),
                                       quantities=spec.quantities),
                        axis_values=values)
        assert alone == rec
        # float repr round-trips, so equal text means equal bits
        assert (json.dumps(record_to_dict(alone, names))
                == json.dumps(record_to_dict(rec, names)))


def _microscopic_sweep():
    # the benchmark's microscopic sweep, thinned: the steady state is a
    # Picard loop on its multistable points, and a band of Delta_m
    # whose one root repels never converges
    base = figure_preset("fig2d").base
    base = base.with_(coupling_mode="microscopic", g_mb=2.0 * math.pi * 0.2,
                      epsilon_d=1e15)
    return SweepSpec(base, (SweepAxis("Delta_m", 0.0, 2.0 * base.omega_b,
                                      41),),
                     quantities=("E_a2m", "st_m_to_a2", "amplitudes"))


def test_a_serial_sweep_solves_the_mean_field_once_per_part(monkeypatch):
    # one Picard loop over the valid points of each part of the grid,
    # the parts that a pool's workers evaluate
    sizes = []
    solve = sweep.solve_steady_states

    def spy(params, *args, **kwargs):
        sizes.append(len(params))
        return solve(params, *args, **kwargs)

    monkeypatch.setattr(sweep, "solve_steady_states", spy)
    monkeypatch.setattr(sweep, "CHUNK_POINTS", 7)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    records = run_sweep(_microscopic_sweep())
    assert not any("invalid" in w for r in records for w in r.warnings)
    # in the order that the two threads reach them
    assert sorted(sizes) == [6, 7, 7, 7, 7, 7]


def test_unconverged_band_has_no_attracting_root():
    # the band of the microscopic sweep that does not converge has one
    # real mean-field root, which repels the damped map (|F'| > 1): the
    # band is not a second branch.  Elsewhere exactly one root attracts,
    # and the sweep reports it, at point 2 too, whose root attracts
    # weakly (F' about -0.998)
    spec = _microscopic_sweep()
    table = run_sweep(spec)
    band = [k for k, rec in enumerate(table)
            if any(w.startswith("steady state did not converge")
                   for w in rec.warnings)]
    assert band == list(range(3, 16))
    for k, values in enumerate(grid_values(spec)):
        roots = mean_field_cubic_roots(build_point_params(spec, values),
                                       spec.base.epsilon_d)
        attracting = [r for r, slope in roots if abs(slope) < 1.0]
        if k in band:
            assert len(roots) == 1
            assert abs(roots[0][1]) > 1.0
        else:
            [root] = attracting
            assert table.values["q_avg"][k] == pytest.approx(root, rel=1e-9)


def test_points_without_an_attracting_root_skip_the_picard_loop():
    # points 3-15 of the unconverged band have no real mean-field root
    # that the damped iteration can reach; point 2 has one (F' about
    # -0.998), and converges at it without a Picard step
    spec = _microscopic_sweep()
    warnings = run_sweep(spec).warnings
    skipped = "steady state did not converge: no real mean-field root " \
        "attracts the damped iteration (residual "
    assert [k for k, w in enumerate(warnings)
            if w and w[0].startswith(skipped)] == list(range(3, 16))
    assert not any("did not converge" in w for w in warnings[2])
    params = stack_params(spec, np.array(grid_values(spec)[2:16]))
    state = sweep.solve_steady_states(params)
    assert state.iterations_used.tolist() == [0] * 14
    assert state.converged.tolist() == [True] + [False] * 13
    assert state.real_roots.tolist() == [1] * 14


def test_csv_does_not_depend_on_chunk_size_or_workers(monkeypatch):
    for spec in (figure_preset("fig2d"), _microscopic_sweep()):
        texts = []
        # the last size also cuts the parts of the jobs=2 run
        for chunk in (1, 64, 7):
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
# purpose updates the digests and lists the points that moved.  The
# closed-form one-root mean field moved microscopic rows 0-2: q, the
# amplitudes and the (positive) margin of rows 0 and 1 within the Picard
# stop rule's error, their residual to 1e-15; row 2 converges, and is
# unstable, instead of running out its 1000 steps.
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
        "6826da8c5e86dd4e6523b42f71f51586bb12fe75ddb28fb20fc19c2d94f4f018",
}


@pytest.mark.parametrize("name", sorted(CSV_DIGESTS))
def test_csv_bytes_are_pinned(name):
    spec = (_microscopic_sweep() if name == "microscopic"
            else figure_preset(name))
    text = render_records(run_sweep(spec), spec)
    assert hashlib.sha256(text.encode()).hexdigest() == CSV_DIGESTS[name]
