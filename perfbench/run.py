"""Benchmark of magmech: figure-sweep throughput and Tc search latency.

Run from the repository root; the package is imported from ``src/``::

    python3 perfbench/run.py --workload grid2d --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0   # all four, serially

Workloads (see ``workloads.py``):

- ``grid2d``: every 10th Delta_1 row of fig2a, one ``magmech sweep`` each;
- ``lines_1d``: the eight 1-D figure presets, one sweep each;
- ``tc_curve``: Tc searches for (a2,m) and (a1,m) over eta;
- ``micro_sweep``: a microscopic-coupling sweep over Delta_m.

A call is one sweep command or one Tc search; a pass runs each of a
workload's distinct calls once.  ``--trace 0`` repeats passes without
tracing until ``--seconds`` have gone by.  Each call's time is taken at
the host's full clock, using a clock probe timed right after it
(``clock.py``), and reported as:

- ``points_per_s``: output points of a pass (grid points, or Tc values
  on tc_curve) over the sum of each distinct call's median time;
- ``call_ms_p50``: median over all calls; on tc_curve that is the
  latency of one Tc search.  The p90 is printed with its sample count
  but kept out of the metrics: its run-to-run spread is too wide;
- ``setup_s``: median, over fresh processes, of the time from process
  start to the first result (import, inputs, config, one evaluation);
- ``peak_rss_mb``: peak resident set size of the benchmark process,
  read before the reference data is loaded.

The same figures as timed, with the clock's slowdown left in, are
printed too, with the sample counts.

``--trace 1`` makes one pass in which each call runs once untraced and
once with every public ``magmech`` function wrapped (``tracer.py``),
and reports per-layer calls, self time, failure counts and quality
extremes, plus two informational timings: ``run_sweep`` with two
workers against serial on grid2d rows, and the microscopic root scan
on every 40th micro_sweep point.

Every output is checked (``check.py``); points that fail, or calls that
raise, count as bad.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Nothing on the machine is pinned or flushed, so noise from other
tenants of a shared host remains in every number; the clock probe takes
out only the part that slows the whole CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

import check  # noqa: E402
import clock  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
LAYERS = ("steady_state", "dynamics", "lyapunov", "measures", "sweep", "cli",
          "config", "params")
JOBS2_ROWS = (96, 8)


def log(line: str) -> None:
    print(line, flush=True)


def import_magmech():
    """Import the package from this checkout's ``src`` only."""
    if not os.path.isfile(os.path.join(SRC, "magmech", "__init__.py")):
        raise SystemExit(f"benchmark: no magmech package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import magmech
    import magmech.cli
    import magmech.config
    if not os.path.abspath(magmech.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported magmech from "
                         f"{magmech.__file__}, not from {SRC}")
    return magmech


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# set-up time: fresh processes, each timed from its start to its first result

def setup_probe(name: str, seed: int, workdir: str) -> int:
    """Body of one probe process: import, make inputs, parse, evaluate."""
    magmech = import_magmech()
    wl = workloads.make(name, magmech, seed, workdir)
    wl.warm_up()
    print("ready", flush=True)
    print(statistics.median(clock.probe() for _ in range(5)), flush=True)
    return 0


def setup_seconds(name: str, seed: int) -> list[float]:
    """Time to first result of fresh processes, at full clock."""
    times = []
    for i in range(SETUP_PROBES):
        workdir = os.path.join(WORK, f"probe_{name}_{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--setup-probe", workdir]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read().split()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        shutil.rmtree(workdir, ignore_errors=True)
        if line.strip() != "ready" or code != 0 or len(rest) != 1:
            raise RuntimeError(f"set-up probe failed (exit code {code})")
        times.append(elapsed * clock.REFERENCE_S / float(rest[0]))
    return times


# ---------------------------------------------------------------------------
# running calls

class Outcome:
    """Times and checks of a sequence of calls."""

    def __init__(self):
        self.calls: list = []
        self.times: list[float] = []
        self.clock: list[float] = []  # clock probe after each call
        self.bad: list = []      # per call, its per-point failure mask
        self.points = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.first: dict = {}    # call key -> output, for the seed-0 check
        self.errors: list[str] = []

    def scaled(self) -> list[float]:
        """Each call's seconds at the host's full clock."""
        return [t * clock.REFERENCE_S / c
                for t, c in zip(self.times, self.clock)]

    def record(self, wl, call, out) -> None:
        """Check one call's output; ``out`` None means the call raised."""
        bad = np.ones(call.n_points, bool)
        if out is not None:
            try:
                result = wl.collect(call, out)
                bad = wl.failures(call, result)
                self.first.setdefault(call.key, result)
            except Exception:
                self.errors.append(traceback.format_exc(limit=3))
        self.bad.append(bad)

    def failed(self, wl, reference) -> tuple[int, int]:
        """(attempted, failed) points; with a reference, each call's
        first output is compared with it and a disagreement counts at
        every repetition of the call."""
        ref_bad = {}
        if reference is not None:
            by_key = {call.key: call for call in self.calls}
            for key, result in self.first.items():
                ref = wl.reference(by_key[key], *reference)
                ref_bad[key] = wl.failures(by_key[key], result, ref)
        attempted = failed = 0
        for call, bad in zip(self.calls, self.bad):
            if reference is not None:
                bad = bad | ref_bad.get(call.key, True)
            attempted += call.n_points
            failed += int(np.count_nonzero(bad))
        return attempted, failed


def run_calls(wl, calls, outcome: Outcome, *, seconds=None) -> Outcome:
    """Run ``calls`` once, or repeat the pass until ``seconds`` have
    passed and the current pass is complete."""
    start = time.perf_counter()
    i = 0
    while True:
        call = calls[i % len(calls)]
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = wl.execute(call)
        except Exception:
            out = None
            outcome.errors.append(traceback.format_exc(limit=3))
        t1, c1 = time.perf_counter(), time.process_time()
        outcome.calls.append(call)
        outcome.times.append(t1 - t0)
        outcome.wall += t1 - t0
        outcome.cpu += c1 - c0
        outcome.clock.append(clock.probe())
        outcome.points += call.n_points
        outcome.record(wl, call, out)
        i += 1
        if i % len(calls) == 0 and (
                seconds is None or time.perf_counter() - start >= seconds):
            return outcome


def prepared(name: str, seed: int):
    magmech = import_magmech()
    wl = workloads.make(name, magmech, seed, os.path.join(WORK, name))
    wl.warm_up()
    return magmech, wl


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def p90(values) -> float:
    values = list(values)
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 \
        else values[0]


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    setup = setup_seconds(name, seed)
    _, wl = prepared(name, seed)
    outcome = run_calls(wl, wl.calls, Outcome(), seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = check.load_reference() if seed == 0 else None
    attempted, failed = outcome.failed(wl, reference)

    # Each call is taken at the host's full clock (clock.py), then the
    # medians: per distinct call for a pass's time, over all calls for
    # latency.
    scaled = outcome.scaled()
    by_key: dict = {}
    for call, t in zip(outcome.calls, scaled):
        by_key.setdefault(call.key, []).append(t)
    pass_s = sum(statistics.median(v) for v in by_key.values())
    pass_points = sum(call.n_points for call in wl.calls)
    ms = [t * 1e3 for t in scaled]
    raw_ms = [t * 1e3 for t in outcome.times]
    metrics = {
        "points_per_s": (pass_points / pass_s, "1/s"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    beyond = sum(t > p90(ms) for t in ms)
    factor = [c / clock.REFERENCE_S for c in outcome.clock]
    notes = [
        f"{len(ms) // len(wl.calls)} passes over {len(wl.calls)} distinct "
        f"calls, {outcome.points} points, {outcome.wall:.3f} s inside calls",
        f"call_ms_p90 = {p90(ms):.6g} ms (not gated: too noisy on a shared "
        f"host), {beyond} of {len(ms)} calls lie beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: a rough tail)"),
        f"host clock: the probe took {statistics.median(factor):.3f}x its "
        f"full-clock time (median; range {min(factor):.3f}-"
        f"{max(factor):.3f}); the timings above are at full clock",
        f"as timed: {outcome.points / outcome.wall:.6g} points/s, call "
        f"median {statistics.median(raw_ms):.3f} ms, p90 "
        f"{p90(raw_ms):.3f} ms",
        f"setup_s: median of {len(setup)} fresh processes: "
        + ", ".join(f"{t:.3f}" for t in setup),
        f"process.cpu_per_wall = {outcome.cpu / outcome.wall:.3f}",
    ]
    return dict(metrics=metrics, attempted=attempted, failed=failed,
                notes=notes, errors=outcome.errors)


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def jobs2_speedup(magmech, seed: int) -> tuple[float, str]:
    """``run_sweep`` with two workers against serial on grid2d rows,
    best of two alternating rounds each."""
    grid = workloads.make("grid2d", magmech, seed,
                          os.path.join(WORK, "jobs2"))
    spec = grid.spec(grid.block_config(*JOBS2_ROWS))
    best = {1: float("inf"), 2: float("inf")}
    records = {}
    for _ in range(2):
        for jobs in best:
            t0 = time.perf_counter()
            try:
                records[jobs] = magmech.run_sweep(spec, jobs=jobs)
            except TypeError:
                return 0.0, "run_sweep takes no jobs argument"
            best[jobs] = min(best[jobs], time.perf_counter() - t0)
    same = ([r.measures for r in records[1]]
            == [r.measures for r in records[2]])
    return best[1] / best[2], (
        f"{len(records[1])} points, serial {best[1]:.3f} s, jobs=2 "
        f"{best[2]:.3f} s, identical measures: {same}")


def root_scan_ms(magmech, seed: int) -> tuple[float, str]:
    """Mean ms per point of ``find_self_consistent_roots`` on micro_sweep
    points: what wiring the scan into every point would cost."""
    scan = getattr(magmech.steady_state, "find_self_consistent_roots", None)
    if scan is None:
        return 0.0, "the package has no root scan"
    micro = workloads.make("micro_sweep", magmech, seed,
                           os.path.join(WORK, "roots"))
    spec = micro.spec(micro.calls[0].config)
    values = spec.axes[0].values()[::workloads.MicroSweep.ROOT_SCAN_STRIDE]
    times = []
    for v in values:
        params = magmech.sweep.build_point_params(spec, (float(v),))
        t0 = time.perf_counter()
        scan(params, spec.epsilon_d)
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times) * 1e3, (
        f"{len(times)} points, median {statistics.median(times) * 1e3:.3f} "
        f"ms, max {max(times) * 1e3:.3f} ms")


def run_traced(name: str, seed: int) -> dict:
    from tracer import Tracer

    magmech, wl = prepared(name, seed)
    speedup, speedup_note = jobs2_speedup(magmech, seed)
    roots_ms, roots_note = root_scan_ms(magmech, seed)

    # each call runs untraced, then traced, so that drift in the host's
    # load falls on both sides of trace.overhead_ratio alike
    calls = wl.calls
    plain, traced, tracer = Outcome(), Outcome(), Tracer()
    for i, call in enumerate(calls):
        run_calls(wl, [call], plain)
        tracer.call = i
        tracer.install(magmech)
        try:
            run_calls(wl, [call], traced)
        finally:
            tracer.uninstall()
    spans_path = os.path.join(WORK, f"spans_{name}.tsv.gz")
    tracer.write(spans_path)

    reference = check.load_reference() if seed == 0 else None
    attempted, failed = plain.failed(wl, reference)
    a2, f2 = traced.failed(wl, reference)

    # times at full clock, as in the untraced run
    scale = [clock.REFERENCE_S / c for c in traced.clock]
    traced_s = sum(traced.scaled())
    metrics = {}
    layers = tracer.layer_times(scale)
    for layer in LAYERS:
        entry = layers.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
        metrics[f"{layer}.self_share"] = (entry["self_s"] / traced_s, "ratio")
    counts = tracer.counts
    verdicts = counts["dynamics.verdicts"]
    metrics.update({
        "steady_state.picard_iters": (counts["steady_state.picard_iters"],
                                      "count"),
        "steady_state.unconverged": (counts["steady_state.unconverged"],
                                     "count"),
        "dynamics.indeterminate": (counts["dynamics.indeterminate"], "count"),
        "lyapunov.singular": (counts["lyapunov.SingularSystemError"],
                              "count"),
        "measures.physicality_errors": (counts["measures.PhysicalityError"],
                                        "count"),
        "dynamics.stable_ratio": (counts["dynamics.stable"] / verdicts
                                  if verdicts else 0.0, "ratio"),
        "sweep.points": (traced.points, "count"),
        "lyapunov.max_residual": (tracer.max_residual, "1"),
        "lyapunov.min_physicality": (
            tracer.min_physicality
            if tracer.min_physicality != float("inf") else 0.0, "1"),
        "sweep.render_s": (tracer.inclusive_s("sweep.render_records", scale),
                           "s"),
        "process.cpu_per_wall": (plain.cpu / plain.wall, "ratio"),
        "trace.overhead_ratio": (traced_s / sum(plain.scaled()), "ratio"),
        "sweep.jobs2_speedup": (speedup, "ratio"),
        "steady_state.root_scan_ms": (roots_ms, "ms"),
    })
    other = sorted(set(layers) - set(LAYERS))
    notes = [
        f"{len(calls)} calls, {traced.points} points: {plain.wall:.3f} s "
        f"untraced, {traced.wall:.3f} s traced; {len(tracer.spans)} spans "
        f"written to {os.path.relpath(spans_path, ROOT)}",
        f"sweep.jobs2_speedup (grid2d rows {JOBS2_ROWS[0]}.."
        f"{sum(JOBS2_ROWS) - 1}): {speedup_note}",
        f"steady_state.root_scan_ms (every "
        f"{workloads.MicroSweep.ROOT_SCAN_STRIDE}th micro_sweep point): "
        f"{roots_note}",
    ] + [f"layer {layer} not in BENCHMARK.json: {layers[layer]}"
         for layer in other]
    return dict(metrics=metrics, attempted=attempted + a2,
                failed=failed + f2, notes=notes,
                errors=plain.errors + traced.errors)


# ---------------------------------------------------------------------------

def report(name: str, seed: int, trace: int, result: dict) -> None:
    kind = "traced" if trace else "untraced"
    log(f"# workload {name}, seed {seed}, {kind}")
    for key, (value, unit) in result["metrics"].items():
        log(f"{name}: {key} = {value:.6g} {unit}")
    bad = result["failed"] / max(result["attempted"], 1)
    log(f"{name}: bad_frac = {bad:.6g} ({result['failed']} of "
        f"{result['attempted']} points or searches)")
    for note in result["notes"]:
        log(f"{name}: {note}")
    for err in result["errors"][:3]:
        log(f"{name}: error: {err.strip().splitlines()[-1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.setup_probe)

    magmech = import_magmech()
    log(f"# magmech {magmech.__version__} benchmark; machine: "
        + json.dumps(machine_facts()))
    log("# no CPU pinning or cache dropping: noise from other tenants of "
        "a shared host remains, beyond the CPU clock changes that the "
        "clock probe takes out")
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = (run_traced(name, args.seed) if args.trace
                  else run_untraced(name, args.seed, args.seconds))
        report(name, args.seed, args.trace, result)
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
