"""Acceptance gate.

Group 1 are hard kernel criteria (Lyapunov solver, symplectic
eigenvalue dual-method agreement, closed-form anchors, physicality,
steering-implies-entanglement, runtime budgets).

Group 2 checks the quantitative reproduction targets.  Each target is
evaluated under every drift/diffusion convention combination; a single
consistent combination must satisfy them.  Targets that fail under all
combinations are written to a discrepancy report (observed vs reference
value per convention) and reported as expected failures: documented
findings, not gate failures.  The report goes to a pytest temporary
directory, or to the path given by ``--discrepancy-report``; pass
``--discrepancy-report discrepancy_report.json`` to refresh the tracked
copy.

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
from magmech.sweep import (PRESET_NAMES, evaluate_point, figure_preset,
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
        V = solve_lyapunov(A[None], D[None])
        worst = max(worst, lyapunov_residual(A[None], V, D[None])[0])
    announce("lyapunov residual < 1e-10 on 1000 instances", worst < 1e-10,
             f"(worst {worst:.3e})")
    assert worst < 1e-10


def test_lyapunov_vs_time_integration(rng):
    worst = 0.0
    for _ in range(100):
        A = random_stable_drift(rng)
        D = random_spd(rng)
        V = solve_lyapunov(A[None], D[None])[0]
        V_t = integrate_lyapunov(A, D)
        worst = max(worst, float(np.abs(V - V_t).max()))
    announce("vectorized vs integrated covariance (100 instances)",
             worst < 1e-8, f"(worst entrywise {worst:.3e})")
    assert worst < 1e-8


def test_dual_method_symplectic_eigenvalue(rng):
    # the package's closed form against the spectral oracle, within
    # DUAL_METHOD_TOL plus the closed form's conditioning allowance
    cms = np.stack([random_physical_cm(rng) for _ in range(1000)])
    nu, errors = pair_measures(cms).nu
    diff, allowance = symplectic_agreement(cms, nu)
    ok = errors == [None] * len(cms) and bool(np.all(diff <= allowance))
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
            nu, errors = pair_measures(cms).nu
            shown = np.array([e is None for e in errors], dtype=bool)
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
    for name, (_, records, _) in preset_runs.items():
        for rec in records:
            if not rec.stable or rec.physicality is None:
                continue
            if any("negative diffusion" in w for w in rec.warnings):
                continue  # indefinite-noise points are out of scope
            checked += 1
            worst = min(worst, rec.physicality)
    ok = worst > -1e-9
    announce("covariance physicality on stable non-negative-noise points",
             ok, f"({checked} points, worst min-eig {worst:.3e})")
    assert checked > 1000
    assert ok


def test_steering_implies_entanglement_on_presets(preset_runs):
    violations = []
    checked = 0
    for name, (_, records, _) in preset_runs.items():
        for rec in records:
            if not rec.stable:
                continue
            for col, value in rec.measures.items():
                if not col.startswith("st_") or value is None:
                    continue
                if value <= 1e-9:
                    continue
                a, b = col[3:].split("_to_")
                e_col = "E_%s%s" % ((a, b) if f"E_{a}{b}" in rec.measures
                                    else (b, a))
                checked += 1
                e_val = rec.measures.get(e_col)
                if e_val is None or e_val <= 0.0:
                    violations.append((name, rec.axis_values, col))
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


def _base(diffusion, **overrides):
    return reference_baseline(diffusion_convention=diffusion, **overrides)


def _measure(params, drift, columns):
    rec = evaluate_point(params, quantities=columns, drift_mode=drift)
    if not rec.stable:
        return {c: None for c in columns}
    return {c: rec.measures.get(c) for c in columns}


def _value(params, drift, column):
    v = _measure(params, drift, (column,))[column]
    return 0.0 if v is None else v


def _series(drift, diffusion, field, values, columns, **overrides):
    rows = []
    for v in values:
        over = dict(overrides)
        if field == "J_over_k1":
            over["J"] = v * reference_baseline().kappa_1
        elif field == "g_ma_over_k1":
            over["g_ma"] = v * reference_baseline().kappa_1
        params = _base(diffusion, **over)
        rows.append(_measure(params, drift, columns))
    return rows


def crit_peak_distant_entanglement(drift, diffusion):
    wb = reference_baseline().omega_b
    best_a2m = 0.0
    best_a1m = 0.0
    for d1 in np.linspace(-0.96, -0.86, 21):
        for dm in np.linspace(0.84, 0.94, 21):
            params = _base(diffusion, Delta_1=d1 * wb, Delta_2=d1 * wb,
                           Delta_m=dm * wb)
            got = _measure(params, drift, ("E_a2m", "E_a1m"))
            best_a2m = max(best_a2m, got["E_a2m"] or 0.0)
            best_a1m = max(best_a1m, got["E_a1m"] or 0.0)
    passed = abs(best_a2m - 0.45) <= 0.10
    return (Outcome(passed, round(best_a2m, 4),
                    f"peak E_a2m {best_a2m:.4f} vs 0.45 +- 0.10"),
            Outcome(best_a2m > 0 and best_a2m > 2 * best_a1m,
                    {"E_a2m": round(best_a2m, 4),
                     "E_a1m": round(best_a1m, 4)},
                    f"peak E_a2m {best_a2m:.4f} vs 2x peak E_a1m "
                    f"{best_a1m:.4f}"))


def crit_eta_monotone(drift, diffusion):
    values = []
    for eta in np.arange(1.0, -0.51, -0.1):
        params = _base(diffusion)
        params = params.with_(gain_g=params.kappa_2 - eta * params.kappa_1)
        values.append(_value(params, drift, "E_a2m"))
    steps = np.diff(values)
    passed = bool(np.all(steps >= -1e-6) and values[-1] > 0)
    return Outcome(passed, [round(v, 4) for v in values],
                   f"E_a2m along eta 1 -> -0.5: {values[0]:.3f} ... "
                   f"{values[-1]:.3f}, min step {steps.min():.2e}")


def _tc(drift, diffusion, gain_over_k1, reference, tol):
    params = _base(diffusion)
    params = params.with_(gain_g=gain_over_k1 * params.kappa_1)
    try:
        tc, _ = find_critical_temperature(params, ("a2", "m"),
                                          coarse_points=81,
                                          drift_mode=drift)
    except ValueError as exc:
        return Outcome(False, None, f"undefined ({exc})")
    return Outcome(bool(abs(tc - reference) <= tol), round(tc, 4),
                   f"T_c {tc:.4f} K vs {reference} +- {tol} K")


def crit_tc_active(drift, diffusion):
    return _tc(drift, diffusion, 1.5, 0.25, 0.07)


def crit_tc_passive(drift, diffusion):
    return _tc(drift, diffusion, 0.0, 0.10, 0.05)


def _first(iterable):
    return next(iterable, None)


def crit_fig4a_structure(drift, diffusion):
    grid = np.linspace(0.0, 4.0, 401)
    cols = ("E_a1b", "E_a2m", "E_a1m", "E_a2b")
    rows = _series(drift, diffusion, "J_over_k1", grid, cols)
    series = {c: np.array([r[c] if r[c] is not None else 0.0 for r in rows])
              for c in cols}

    def peak(col):
        return grid[series[col].argmax()] if series[col].max() > 1e-4 \
            else None

    def onset(col):
        idx = _first(i for i, v in enumerate(series[col]) if v > TOL_E)
        return grid[idx] if idx is not None else None

    overtake_idx = _first(
        i for i, (x, y) in enumerate(zip(series["E_a2m"], series["E_a1b"]))
        if x > 1e-4 and x > y)
    observed = {
        "peak_a1b": peak("E_a1b"),
        "overtake": grid[overtake_idx] if overtake_idx is not None else None,
        "peak_a2m": peak("E_a2m"),
        "onset_a1m": onset("E_a1m"),
        "onset_a2b": onset("E_a2b"),
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
    cols = ("E_a1b", "E_a2b", "E_a1m", "E_a2m")
    rows = _series(drift, diffusion, "g_ma_over_k1", grid, cols)
    series = {c: np.array([r[c] if r[c] is not None else 0.0 for r in rows])
              for c in cols}

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
    wb = reference_baseline().omega_b
    one_way = False
    for d1 in np.linspace(-1.2, -0.7, 11):
        for dm in np.linspace(0.7, 1.2, 11):
            params = _base(diffusion, Delta_1=d1 * wb, Delta_2=d1 * wb,
                           Delta_m=dm * wb)
            got = _measure(params, drift, ("st_a2_to_m", "st_m_to_a2"))
            fwd, back = got["st_a2_to_m"], got["st_m_to_a2"]
            if fwd is not None and fwd > TOL_E and back == 0.0:
                one_way = True
                break
        if one_way:
            break

    grid = np.linspace(0.0, 4.0, 201)
    cols = ("st_a2_to_m", "st_m_to_a2", "st_a2_to_b", "st_b_to_a2")
    rows = _series(drift, diffusion, "J_over_k1", grid, cols)
    series = {c: np.array([r[c] if r[c] is not None else 0.0 for r in rows])
              for c in cols}

    peak_fwd = grid[series["st_a2_to_m"].argmax()] \
        if series["st_a2_to_m"].max() > TOL_E else None
    two_way_idx = _first(
        i for i in range(len(grid))
        if series["st_a2_to_b"][i] > TOL_E
        and series["st_b_to_a2"][i] > TOL_E)
    two_way = grid[two_way_idx] if two_way_idx is not None else None
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
    wb = reference_baseline().omega_b
    grid = np.linspace(-2.0, 0.0, 201)

    def run(dm):
        rows = []
        for d1 in grid:
            params = _base(diffusion, Delta_1=d1 * wb, Delta_2=d1 * wb,
                           Delta_m=dm * wb)
            rows.append(_measure(params, drift,
                                 ("E_a1m", "E_a2m", "E_a1a2")))
        return {c: np.array([r[c] if r[c] is not None else 0.0
                             for r in rows])
                for c in ("E_a1m", "E_a2m", "E_a1a2")}

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
    return {"results": results, "best": best, "scores": scores,
            "report": [], "report_path": report_path}


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
    group2["report"].append({
        "criterion": cid,
        "reference_value": CRITERIA[cid][0],
        "results": [{"drift": drift, "diffusion": diffusion,
                     "observed": results[(drift, diffusion)].observed,
                     "passed": results[(drift, diffusion)].passed}
                    for drift, diffusion in CONVENTIONS],
    })
    _write_report(group2["report"], group2["report_path"])
    pytest.xfail(f"{cid} fails under every drift/diffusion convention; "
                 f"documented in {group2['report_path']} "
                 f"({outcome.detail})")


def _write_report(entries, path):
    path.write_text(json.dumps(entries, indent=2, sort_keys=True,
                               default=float) + "\n")
    print(f"discrepancy report written to {path} ({len(entries)} entries)")


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
