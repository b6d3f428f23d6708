"""Acceptance gate.

Group 1 are hard kernel criteria (Lyapunov solver, symplectic
eigenvalue dual-method agreement, closed-form anchors, physicality,
steering-implies-entanglement, runtime budgets).

Group 2 checks the quantitative reproduction targets.  Each target is
evaluated under every drift/diffusion convention combination, from the
tables of ``run_sweep`` over its grids; a single consistent combination
must satisfy them.  Targets that fail under all combinations are
written to a discrepancy report (observed vs reference value per
convention) and reported as expected failures: documented findings, not
gate failures.  The report goes to a pytest temporary directory, or to
the path given by ``--discrepancy-report``, and must equal the tracked
``discrepancy_report.json``; pass ``--discrepancy-report
discrepancy_report.json`` to refresh the tracked copy.

Group 3 checks CLI determinism (byte-identical output, serial vs
parallel).

Every test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line; run with
``pytest -s tests/test_acceptance.py`` to see them all.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from magmech.lyapunov import lyapunov_residual, solve_lyapunov
from magmech.measures import PAIRS, pair_measures, reduce_pair
from magmech.params import reference_baseline
from magmech.sweep import (PRESET_NAMES, SweepAxis, SweepSpec,
                           evaluate_point, figure_preset,
                           find_critical_temperature, grid_values, run_sweep)

from .oracles import (integrate_lyapunov, random_physical_cm, random_spd,
                      random_stable_drift, stable_covariances,
                      symplectic_agreement, tmsv_cm)

JOBS = 4
TOL_E = 1e-6

CONVENTIONS = tuple((drift, diff)
                    for drift in ("derived", "printed")
                    for diff in ("as_printed", "absolute_value",
                                 "physical_sum"))


def announce(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}".rstrip())


# ---------------------------------------------------------------------------
# group 1: kernel correctness


def test_lyapunov_residual_on_random_stable_instances(rng):
    worst = 0.0
    for _ in range(1000):
        A = random_stable_drift(rng)
        D = random_spd(rng)
        V, _ = solve_lyapunov(A[None], D[None])
        worst = max(worst, lyapunov_residual(A[None], V, D[None])[0])
    announce("lyapunov residual < 1e-10 on 1000 instances", worst < 1e-10,
             f"(worst {worst:.3e})")
    assert worst < 1e-10


def test_lyapunov_vs_time_integration(rng):
    worst = 0.0
    for _ in range(100):
        A = random_stable_drift(rng)
        D = random_spd(rng)
        V = solve_lyapunov(A[None], D[None])[0][0]
        V_t = integrate_lyapunov(A, D)
        worst = max(worst, float(np.abs(V - V_t).max()))
    announce("vectorized vs integrated covariance (100 instances)",
             worst < 1e-8, f"(worst entrywise {worst:.3e})")
    assert worst < 1e-8


def test_dual_method_symplectic_eigenvalue(rng):
    # the package's closed form against the spectral oracle, within
    # DUAL_METHOD_TOL plus the closed form's conditioning allowance
    cms = np.stack([random_physical_cm(rng) for _ in range(1000)])
    nu, screen, _ = pair_measures(cms).nu
    diff, allowance = symplectic_agreement(cms, nu)
    ok = not screen.any() and bool(np.all(diff <= allowance))
    announce("dual-method symplectic eigenvalue (1000 instances)", ok,
             f"(worst {diff.max():.3e})")
    assert ok

    # every stable point of every 7th grid point (row-major) of every
    # preset, all six pairs; the points the symplectic screens null are
    # left out
    worst = 0.0
    checked = screened = 0
    failed = []
    for name in PRESET_NAMES:
        spec = figure_preset(name)
        _, V = stable_covariances(spec, np.array(grid_values(spec))[::7])
        for pair in PAIRS:
            cms = reduce_pair(V, pair)
            nu, screen, _ = pair_measures(cms).nu
            shown = screen == 0
            diff, allowance = symplectic_agreement(cms[shown], nu[shown])
            checked += int(shown.sum())
            screened += int((~shown).sum())
            worst = max(worst, float(diff.max(initial=0.0)))
            if np.any(diff > allowance):
                failed.append((name, pair))
    announce("dual-method symplectic eigenvalue on every 7th preset point",
             not failed, f"({checked} pair states, {screened} screened, "
                         f"worst {worst:.3e})")
    assert checked > 100000
    assert not failed


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_squeezed_vacuum_closed_forms(r):
    found = pair_measures(tmsv_cm(r)[None])
    e_n, zeta = found.log_negativity[0][0], found.forward[0][0]
    ok = (abs(e_n - 2 * r) < 1e-10
          and abs(zeta - math.log(math.cosh(2 * r))) < 1e-10)
    announce(f"squeezed-vacuum anchors at r={r}", ok,
             f"(E_N {e_n:.12f}, steering {zeta:.12f})")
    assert abs(e_n - 2 * r) < 1e-10
    assert abs(zeta - math.log(math.cosh(2 * r))) < 1e-10


@pytest.fixture(scope="session")
def preset_runs():
    runs = {}
    for name in PRESET_NAMES:
        spec = figure_preset(name)
        start = time.perf_counter()
        records = run_sweep(spec, jobs=JOBS)
        runs[name] = (spec, records, time.perf_counter() - start)
    return runs


def test_physicality_at_all_preset_points(preset_runs):
    worst = np.inf
    checked = 0
    for name, (_, table, _) in preset_runs.items():
        # indefinite-noise points are out of scope
        noisy = np.array([any("negative diffusion" in w for w in ws)
                          for ws in table.warnings], dtype=bool)
        shown = (table.stable & ~np.isnan(table.values["physicality"])
                 & ~noisy)
        checked += int(shown.sum())
        worst = min(worst, table.values["physicality"][shown].min(
            initial=np.inf))
    ok = worst > -1e-9
    announce("covariance physicality on stable non-negative-noise points",
             ok, f"({checked} points, worst min-eig {worst:.3e})")
    assert checked > 1000
    assert ok


def test_lyapunov_residual_at_all_preset_points(preset_runs):
    worst = 0.0
    checked = 0
    for name, (_, table, _) in preset_runs.items():
        # every point that reports measures reports its residual
        residual = table.values["lyap_residual"][table.stable]
        assert not np.isnan(residual).any(), name
        checked += residual.size
        worst = max(worst, residual.max(initial=0.0))
    ok = worst < 1e-10
    announce("lyapunov residual < 1e-10 at every stable preset point", ok,
             f"({checked} points, worst {worst:.3e})")
    assert checked > 1000
    assert ok


def test_median_lyapunov_residual_of_each_preset(preset_runs):
    # the spectral solve's refinement step keeps the bulk of the points
    # near rounding: each preset's median lies between 5.9e-16 (fig5b)
    # and 1.2e-15 with it, and between 8.9e-15 (fig7b) and 1.7e-14
    # (fig2d) without it, which the 1e-12 Kronecker retry never sees
    medians = {name: float(np.median(table.values["lyap_residual"][
        table.stable])) for name, (_, table, _) in preset_runs.items()}
    worst = max(medians, key=medians.get)
    ok = medians[worst] < 3e-15
    announce("median lyapunov residual < 3e-15 on every preset", ok,
             f"(worst {worst} at {medians[worst]:.3e})")
    assert ok


def test_steering_implies_entanglement_on_presets(preset_runs):
    violations = []
    checked = 0
    for name, (_, table, _) in preset_runs.items():
        for col in table.columns:
            if not col.startswith("st_"):
                continue
            steerable = (table.stable & ~np.isnan(table.values[col])
                         & (table.values[col] > 1e-9))
            a, b = col[3:].split("_to_")
            e_col = "E_%s%s" % ((a, b) if f"E_{a}{b}" in table.columns
                                else (b, a))
            checked += int(steerable.sum())
            unentangled = steerable & (np.isnan(table.values[e_col])
                                       | (table.values[e_col] <= 0.0))
            violations += [(name, tuple(v), col)
                           for v in table.axis_values[unentangled].tolist()]
    announce("steering implies entanglement", not violations,
             f"({checked} steerable evaluations, "
             f"{len(violations)} violations)")
    assert not violations


def test_single_pipeline_evaluation_under_5ms(baseline):
    evaluate_point(baseline)  # warm-up
    times = []
    for _ in range(200):
        start = time.perf_counter()
        evaluate_point(baseline)
        times.append(time.perf_counter() - start)
    median_ms = sorted(times)[len(times) // 2] * 1e3
    announce("single pipeline evaluation < 5 ms", median_ms < 5.0,
             f"(median {median_ms:.3f} ms)")
    assert median_ms < 5.0


def test_preset_runtime_under_budget(preset_runs):
    slowest = max((dur, name) for name, (_, _, dur) in preset_runs.items())
    ok = slowest[0] < 60.0
    announce(f"every preset under 60 s with {JOBS} workers", ok,
             f"(slowest {slowest[1]} at {slowest[0]:.1f} s)")
    assert ok


# ---------------------------------------------------------------------------
# group 2: quantitative reproduction


@dataclass
class Outcome:
    passed: bool
    observed: object
    detail: str = ""


BASE = reference_baseline()
EQUAL_DETUNINGS = (("Delta_2", "Delta_1", 1.0),)


def _base(diffusion, **overrides):
    return reference_baseline(diffusion_convention=diffusion, **overrides)


def _scan(drift, diffusion, axes, columns, links=(), **overrides):
    """One ``run_sweep`` of the grid ``axes`` under one convention: its
    table, and each of ``columns`` as an array in row-major order, 0
    where a point is unstable or null."""
    base = _base(diffusion, drift_mode=drift, **overrides)
    table = run_sweep(SweepSpec(base, axes, quantities=columns, links=links))
    return table, {c: np.where(table.stable & ~np.isnan(table.values[c]),
                               table.values[c], 0.0) for c in columns}


def _axis(name, grid, unit):
    """The axis over ``name`` = ``grid`` * ``unit``, ``grid`` being a
    unitless linear grid."""
    return SweepAxis(name, grid[0] * unit, grid[-1] * unit, len(grid))


def _line(drift, diffusion, name, grid, columns, unit=BASE.kappa_1,
          **overrides):
    """``columns`` along the unitless ``grid`` of one parameter, as
    :func:`_scan` gives them."""
    return _scan(drift, diffusion, (_axis(name, grid, unit),), columns,
                 **overrides)[1]


def _detuning_plane(drift, diffusion, d1, dm, columns):
    """:func:`_scan` over the Delta_1 x Delta_m plane, the unitless grids
    ``d1`` and ``dm`` in units of omega_b, with Delta_2 = Delta_1."""
    axes = (_axis("Delta_1", d1, BASE.omega_b),
            _axis("Delta_m", dm, BASE.omega_b))
    return _scan(drift, diffusion, axes, columns, EQUAL_DETUNINGS)


def crit_peak_distant_entanglement(drift, diffusion):
    _, got = _detuning_plane(drift, diffusion, np.linspace(-0.96, -0.86, 21),
                             np.linspace(0.84, 0.94, 21), ("E_a2m", "E_a1m"))
    best_a2m = float(got["E_a2m"].max())
    best_a1m = float(got["E_a1m"].max())
    passed = abs(best_a2m - 0.45) <= 0.10
    return (Outcome(passed, round(best_a2m, 4),
                    f"peak E_a2m {best_a2m:.4f} vs 0.45 +- 0.10"),
            Outcome(best_a2m > 0 and best_a2m > 2 * best_a1m,
                    {"E_a2m": round(best_a2m, 4),
                     "E_a1m": round(best_a1m, 4)},
                    f"peak E_a2m {best_a2m:.4f} vs 2x peak E_a1m "
                    f"{best_a1m:.4f}"))


def crit_eta_monotone(drift, diffusion):
    values = _line(drift, diffusion, "eta", np.linspace(1.0, -0.5, 16),
                   ("E_a2m",), unit=1.0)["E_a2m"].tolist()
    steps = np.diff(values)
    passed = bool(np.all(steps >= -1e-6) and values[-1] > 0)
    return Outcome(passed, [round(v, 4) for v in values],
                   f"E_a2m along eta 1 -> -0.5: {values[0]:.3f} ... "
                   f"{values[-1]:.3f}, min step {steps.min():.2e}")


def _tc(drift, diffusion, gain_over_k1, reference, tol):
    params = _base(diffusion, drift_mode=drift)
    params = params.with_(gain_g=gain_over_k1 * params.kappa_1)
    try:
        tc, _ = find_critical_temperature(params, ("a2", "m"))
    except ValueError as exc:
        return Outcome(False, None, f"undefined ({exc})")
    return Outcome(bool(abs(tc - reference) <= tol), round(tc, 4),
                   f"T_c {tc:.4f} K vs {reference} +- {tol} K")


def crit_tc_active(drift, diffusion):
    return _tc(drift, diffusion, 1.5, 0.25, 0.07)


def crit_tc_passive(drift, diffusion):
    return _tc(drift, diffusion, 0.0, 0.10, 0.05)


def _at_first(grid, mask):
    """The grid value of the first true entry of ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return grid[hits[0]] if hits.size else None


def crit_fig4a_structure(drift, diffusion):
    grid = np.linspace(0.0, 4.0, 401)
    series = _line(drift, diffusion, "J", grid,
                   ("E_a1b", "E_a2m", "E_a1m", "E_a2b"))

    def peak(col):
        return grid[series[col].argmax()] if series[col].max() > 1e-4 \
            else None

    observed = {
        "peak_a1b": peak("E_a1b"),
        "overtake": _at_first(grid, (series["E_a2m"] > 1e-4)
                              & (series["E_a2m"] > series["E_a1b"])),
        "peak_a2m": peak("E_a2m"),
        "onset_a1m": _at_first(grid, series["E_a1m"] > TOL_E),
        "onset_a2b": _at_first(grid, series["E_a2b"] > TOL_E),
    }
    targets = {"peak_a1b": (1.6, 0.2), "overtake": (1.7, 0.2),
               "peak_a2m": (1.9, 0.2), "onset_a1m": (1.97, 0.25),
               "onset_a2b": (1.97, 0.25)}
    passed = all(observed[k] is not None
                 and abs(observed[k] - ref) <= tol
                 for k, (ref, tol) in targets.items())
    pretty = {k: (None if v is None else round(v, 3))
              for k, v in observed.items()}
    return Outcome(passed, pretty, f"J/kappa_1 landmarks {pretty}")


def crit_fig4b_structure(drift, diffusion):
    grid = np.linspace(0.0, 5.0, 201)
    series = _line(drift, diffusion, "g_ma", grid,
                   ("E_a1b", "E_a2b", "E_a1m", "E_a2m"))

    def vanish(col):
        values = series[col]
        if values.max() <= TOL_E:
            return None
        last = np.nonzero(values > TOL_E)[0].max()
        return grid[last] if last + 1 >= len(grid) else grid[last + 1]

    observed = {c: vanish(c) for c in ("E_a1b", "E_a2b", "E_a1m")}
    deaths_ok = all(v is not None and abs(v - 3.6) <= 0.3
                    for v in observed.values())
    window = (grid >= 3.9) & (grid <= 4.2)
    exclusive = bool(np.all(series["E_a2m"][window] > TOL_E)
                     and all(np.all(series[c][window] <= TOL_E)
                             for c in ("E_a1b", "E_a2b", "E_a1m")))
    observed["exclusive_window"] = exclusive
    pretty = {k: (round(v, 3) if isinstance(v, float) else v)
              for k, v in observed.items()}
    return Outcome(deaths_ok and exclusive, pretty,
                   f"g_ma/kappa_1 landmarks {pretty}")


def crit_steering_structure(drift, diffusion):
    table, plane = _detuning_plane(drift, diffusion,
                                   np.linspace(-1.2, -0.7, 11),
                                   np.linspace(0.7, 1.2, 11),
                                   ("st_a2_to_m", "st_m_to_a2"))
    # one-way: a2 steers m and m's steering of a2 is shown, and exactly 0
    one_way = bool(np.any((plane["st_a2_to_m"] > TOL_E)
                          & table.stable
                          & ~np.isnan(table.values["st_m_to_a2"])
                          & (table.values["st_m_to_a2"] == 0.0)))

    grid = np.linspace(0.0, 4.0, 201)
    series = _line(drift, diffusion, "J", grid,
                   ("st_a2_to_m", "st_m_to_a2", "st_a2_to_b", "st_b_to_a2"))
    peak_fwd = grid[series["st_a2_to_m"].argmax()] \
        if series["st_a2_to_m"].max() > TOL_E else None
    two_way = _at_first(grid, (series["st_a2_to_b"] > TOL_E)
                        & (series["st_b_to_a2"] > TOL_E))
    window = (grid >= 2.5) & (grid <= 3.2)
    suppressed = bool(np.all(series["st_a2_to_m"][window] <= TOL_E)
                      and np.all(series["st_m_to_a2"][window] <= TOL_E))

    observed = {"one_way_region": one_way,
                "peak_a2_to_m": None if peak_fwd is None
                else round(peak_fwd, 3),
                "two_way_onset": None if two_way is None
                else round(two_way, 3),
                "suppressed_a2m_window": suppressed}
    passed = (one_way
              and peak_fwd is not None and abs(peak_fwd - 1.8) <= 0.2
              and two_way is not None and abs(two_way - 2.5) <= 0.3
              and suppressed)
    return Outcome(passed, observed, f"steering landmarks {observed}")


def crit_fig6_exchange(drift, diffusion):
    wb = BASE.omega_b
    grid = np.linspace(-2.0, 0.0, 201)

    def run(dm):
        return _line(drift, diffusion, "Delta_1", grid,
                     ("E_a1m", "E_a2m", "E_a1a2"), unit=wb,
                     links=EQUAL_DETUNINGS, Delta_m=dm * wb)

    near = run(0.87)
    only_a2m = ((near["E_a2m"] > TOL_E) & (near["E_a1m"] <= TOL_E)
                & (near["E_a1a2"] <= TOL_E))
    if np.any(only_a2m):
        idx = np.nonzero(only_a2m)[0]
        # contiguous run closest to the reference window
        splits = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1)
        run_best = min(splits,
                       key=lambda s: abs(grid[s].mean() - (-0.925)))
        lo, hi = grid[run_best[0]], grid[run_best[-1]]
        window_ok = abs(lo - (-0.943)) <= 0.05 and abs(hi - (-0.907)) <= 0.05
    else:
        lo = hi = None
        window_ok = False

    far = run(0.06)
    far_ok = bool(far["E_a1m"].max() > TOL_E
                  and far["E_a2m"].max() <= TOL_E
                  and far["E_a1a2"].max() <= TOL_E)

    observed = {"window": None if lo is None
                else [round(lo, 3), round(hi, 3)],
                "only_near_entanglement_at_0.06": far_ok}
    return Outcome(window_ok and far_ok, observed,
                   f"exchange windows {observed}")


CRITERIA = {
    "peak_distant_entanglement": ("0.45 +- 0.10", None),
    "distant_over_near_ratio": ("peak E_a2m > 2x peak E_a1m", None),
    "eta_monotone_trend": ("E_a2m non-decreasing for eta 1 -> -0.5",
                           crit_eta_monotone),
    "tc_active": ("0.25 +- 0.07 K", crit_tc_active),
    "tc_passive": ("0.10 +- 0.05 K", crit_tc_passive),
    "fig4a_structure": ("peaks 1.6/1.9, overtake 1.7, onsets 1.97 kappa_1",
                        crit_fig4a_structure),
    "fig4b_structure": ("deaths at 3.6 kappa_1, exclusive window to "
                        "4.2 kappa_1", crit_fig4b_structure),
    "steering_structure": ("one-way region, peak 1.8, two-way onset 2.5, "
                           "suppression in [2.5, 3.2] kappa_1",
                           crit_steering_structure),
    "fig6_exchange": ("only-E_a2m window [-0.943, -0.907] omega_b; "
                      "only E_a1m at Delta_m = 0.06 omega_b",
                      crit_fig6_exchange),
}


@pytest.fixture(scope="session")
def report_path(pytestconfig, tmp_path_factory):
    explicit = pytestconfig.getoption("discrepancy_report")
    if explicit:
        return Path(explicit)
    return tmp_path_factory.mktemp("acceptance") / "discrepancy_report.json"


@pytest.fixture(scope="session")
def group2(report_path):
    results = {cid: {} for cid in CRITERIA}
    for drift, diffusion in CONVENTIONS:
        peak, ratio = crit_peak_distant_entanglement(drift, diffusion)
        results["peak_distant_entanglement"][(drift, diffusion)] = peak
        results["distant_over_near_ratio"][(drift, diffusion)] = ratio
        for cid, (_, fn) in CRITERIA.items():
            if fn is not None:
                results[cid][(drift, diffusion)] = fn(drift, diffusion)
    scores = {combo: sum(results[cid][combo].passed for cid in CRITERIA)
              for combo in CONVENTIONS}
    best = max(CONVENTIONS, key=lambda c: scores[c])
    # the criteria that fail under every convention
    report = [{"criterion": cid, "reference_value": CRITERIA[cid][0],
               "results": [{"drift": drift, "diffusion": diffusion,
                            "observed": outcome.observed,
                            "passed": outcome.passed}
                           for (drift, diffusion), outcome
                           in results[cid].items()]}
              for cid in CRITERIA
              if not any(o.passed for o in results[cid].values())]
    _write_report(report, report_path)
    return {"results": results, "best": best, "scores": scores,
            "report_path": report_path}


def _check_criterion(group2, cid):
    results = group2["results"][cid]
    best = group2["best"]
    outcome = results[best]
    announce(f"{cid} [{best[0]}/{best[1]}]", outcome.passed, outcome.detail)
    if outcome.passed:
        return
    if any(results[combo].passed for combo in CONVENTIONS):
        passing = [c for c in CONVENTIONS if results[c].passed]
        pytest.fail(f"{cid} fails under the selected convention {best} "
                    f"but passes under {passing}; a single consistent "
                    "convention must satisfy all reproduction targets")
    pytest.xfail(f"{cid} fails under every drift/diffusion convention; "
                 f"documented in {group2['report_path']} "
                 f"({outcome.detail})")


def _write_report(entries, path):
    path.write_text(json.dumps(entries, indent=2, sort_keys=True,
                               default=float) + "\n")
    print(f"discrepancy report written to {path} ({len(entries)} entries)")


def test_tracked_discrepancy_report_is_current(group2):
    # the report of this run, which goes to a temporary path unless
    # --discrepancy-report names another, against the tracked copy
    tracked = Path(__file__).resolve().parents[1] / "discrepancy_report.json"
    same = group2["report_path"].read_bytes() == tracked.read_bytes()
    announce("tracked discrepancy report is current", same)
    assert same, ("discrepancy_report.json is stale; refresh it with "
                  "--discrepancy-report discrepancy_report.json")


def test_group2_convention_selected(group2):
    best = group2["best"]
    announce("single consistent convention",
             True, f"(selected drift={best[0]}, diffusion={best[1]}, "
                   f"scores {group2['scores']})")
    assert best in CONVENTIONS


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_group2_criterion(group2, cid):
    _check_criterion(group2, cid)


# ---------------------------------------------------------------------------
# group 3: CLI determinism


def _run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "magmech.cli"] + args,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_preset_determinism(tmp_path):
    files = [tmp_path / f"fig2a_{k}.csv" for k in range(3)]
    _run_cli(["preset", "fig2a", "--out", str(files[0]), "--jobs", "8"])
    _run_cli(["preset", "fig2a", "--out", str(files[1]), "--jobs", "8"])
    _run_cli(["preset", "fig2a", "--out", str(files[2]), "--jobs", "1"])
    twice = files[0].read_bytes() == files[1].read_bytes()
    serial = files[0].read_bytes() == files[2].read_bytes()
    announce("CLI determinism (repeat and serial-vs-8-workers)",
             twice and serial,
             f"(repeat identical: {twice}, serial identical: {serial})")
    assert twice
    assert serial
