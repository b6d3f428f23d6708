"""Compare the outputs of this tree with those of another checkout.

Run from the repository root, against a checkout of another commit
(made with ``git worktree add ../parent HEAD~1``, or with ``git
archive HEAD~1 | tar -x -C ../parent`` into an empty directory)::

    python tests/compare_outputs.py --against ../parent

Each tree runs in its own subprocess with its own ``src`` on
``PYTHONPATH`` and writes, output by output:

- the CSV and JSON lines of all 13 figure presets, evaluated in
  process, and the CSV, standard error and exit code of ``preset fig2a
  --jobs 2``, whose parts run in two worker processes;
- ``point``, ``tc``, ``validate`` and ``sweep`` (CSV and JSON lines) on
  configs written from ``reference_baseline()``: in ``direct_g`` mode
  with a sweep over J, and in ``microscopic`` mode with the
  benchmark's 401-point sweep over Delta_m; standard output, standard
  error and the exit code of each, and the ``A.txt`` and ``D.txt``
  that ``point --dump-matrices`` writes;
- ``point`` where the mean field breaks down (``BREAKDOWNS``): an
  overflowed drive in each mode, and a point where the closed form
  divides by zero;
- the Tc of ``reference_baseline()`` along a row of 21 eta values, for
  (a2,m) over [-0.6, 1] and (a1,m) over [-0.5, 0], at ``"%.17g"`` with
  its warnings or the search's error;
- the same for the search's other branches (``TC_CASES``): the
  ``absolute_value`` and ``physical_sum`` noises, the printed drift
  matrix and a driven microscopic point;
- the acceptance suite's discrepancy report, from the tree's own tests.

The script prints ``identical``, or for each output that differs the
columns (CSV header, JSON key or text line) that moved, with the
largest numeric move and, in a CSV or JSON lines output, the rows that
moved as ranges counted from 0 at the first record (``rows 0-20``); it
exits 1 on any difference.  It also prints the
net change in the lines of the Python files under ``src``, which does
not enter the exit code.  pytest does not collect it.

With ``--rule refactor`` the exit code is the refactor rule's instead,
whatever else moved.  Over every CSV output it checks that:

- the stable mask is unchanged, except at points whose |margin| in the
  other tree is within the stability gate's 1e-9 kappa_1, which are
  listed;
- no ``E_*`` or ``st_*`` cell moves by more than 1e-12 times
  max(|other|, 1), a null on one side only counting as a move, except
  at those listed points;
- the Python files under ``src`` have no more lines than the other
  tree's.

It prints one verdict line per check, with the points that break it,
and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

SCRIPT = os.path.abspath(__file__)

# the refactor rule: the stability gate's tolerance on the margin (the
# presets' kappa_1 is 2 pi * 1 MHz) and the relative bound on a measure
MARGIN_TOL = 1e-9 * 2.0 * math.pi * 1e6
MEASURE_TOL = 1e-12

# per coupling mode: the parameters that differ from reference_baseline(),
# the drive and the [sweep] axis
MODES = {
    "direct_g": ({}, 1e14, "J, 1 kappa1, 3 kappa1, 101"),
    "microscopic": ({"G_mb": 0.0, "g_mb": 2.0 * math.pi * 0.2}, 1e15,
                    "Delta_m, 0 omega_b, 2 omega_b, 401"),
}


# per pair, the eta range of its Tc row
TC_ROWS = {("a2", "m"): (-0.6, 1.0), ("a1", "m"): (-0.5, 0.0)}
TC_ROW_POINTS = 21

# the Tc searches off the rows' defaults, those of the sequential
# bisection test: per case the pair, the drift mode or drive (a field of
# the point, or an option of the search in a tree whose point lacks it)
# and the changes to reference_baseline(), with detunings in units of
# omega_b and the gain in units of kappa_1
TC_CASES = {
    "absolute_value": (("m", "b"), {}, dict(
        diffusion_convention="absolute_value", Delta_1=-2.0, Delta_2=-2.0,
        Delta_m=0.9)),
    "physical_sum": (("m", "b"), {}, dict(
        diffusion_convention="physical_sum", gain_g=0.5, Delta_1=1.1,
        Delta_2=1.1, Delta_m=-0.4)),
    "printed_drift": (("a1", "b"), {"drift_mode": "printed"}, dict(
        Delta_1=1.0, Delta_2=1.0, Delta_m=-0.1)),
    "driven_microscopic": (("a2", "m"), {"epsilon_d": 1e14}, dict(
        coupling_mode="microscopic", g_mb=0.2, Delta_m=0.9)),
}


# ``point`` where the mean field breaks down: per case the coupling
# mode, the drive and the changes to that mode's point, from the point.
# A drive that overflows in each mode, and J^2 + f1*f2 = 0 (resonant
# cavities with a net cavity-2 gain of J^2/kappa_1), where the closed
# form divides by zero
BREAKDOWNS = {
    "direct_g_overflow": ("direct_g", 1e170, lambda p: {}),
    "microscopic_overflow": ("microscopic", 1e300, lambda p: {}),
    "resonant_loss": ("direct_g", 1e14, lambda p: dict(
        Delta_1=0.0, Delta_2=0.0, gain_g=p.kappa_2 + p.J ** 2 / p.kappa_1)),
}


def _config(mode: str, output_format: str, epsilon_d=None,
            more=lambda p: {}) -> str:
    """A config of the mode's point, at its drive or ``epsilon_d``, with
    the changes ``more`` gives from that point."""
    from magmech.params import NUMERIC_FIELDS, reference_baseline

    changes, drive, axis = MODES[mode]
    base = reference_baseline().with_(coupling_mode=mode, **changes)
    base = base.with_(**more(base))
    epsilon_d = drive if epsilon_d is None else epsilon_d
    return "\n".join(
        ["[system]", "units = rad_s"]
        + [f"{name} = {getattr(base, name)!r}" for name in NUMERIC_FIELDS]
        + [f"coupling_mode = {mode}",
           f"diffusion_convention = {base.diffusion_convention}",
           f"epsilon_d = {epsilon_d!r}",
           "[sweep]", f"axis1 = {axis}", "quantities = all, amplitudes",
           "[output]", f"format = {output_format}", ""])


def _run_cli(argv, stem: str, out_dir: str) -> None:
    from magmech.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    for suffix, text in ((".stdout", stdout.getvalue()),
                         (".stderr", stderr.getvalue()),
                         (".exit", f"{code}\n")):
        with open(os.path.join(out_dir, stem + suffix), "w") as fh:
            fh.write(text)


def _tc(params, pair, **options) -> str:
    """Tc at ``"%.17g"`` and its warnings, or the search's error.  An
    option that ``params`` has a field for is set on it, and the rest
    are passed to the search."""
    from dataclasses import fields

    from magmech.sweep import find_critical_temperature

    names = {f.name for f in fields(params)}
    params = params.with_(**{k: v for k, v in options.items() if k in names})
    options = {k: v for k, v in options.items() if k not in names}
    try:
        tc, warnings = find_critical_temperature(params, pair, **options)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return "; ".join(["%.17g" % tc, *warnings])


def _tc_row(pair, lo: float, hi: float) -> str:
    """One line per eta of the row: eta, then its :func:`_tc`."""
    import numpy as np

    from magmech.params import reference_baseline

    base = reference_baseline()
    lines = []
    for eta in np.linspace(lo, hi, TC_ROW_POINTS).tolist():
        params = base.with_(gain_g=base.kappa_2 - eta * base.kappa_1)
        lines.append("%.17g %s" % (eta, _tc(params, pair)))
    return "\n".join(lines) + "\n"


def _tc_cases() -> str:
    """One line per case of ``TC_CASES``: its name, then its
    :func:`_tc`."""
    from magmech.params import TWO_PI, reference_baseline

    base = reference_baseline()
    units = dict(Delta_1=base.omega_b, Delta_2=base.omega_b,
                 Delta_m=base.omega_b, gain_g=base.kappa_1, g_mb=TWO_PI)
    lines = []
    for name, (pair, options, changes) in TC_CASES.items():
        params = base.with_(**{key: value * units[key] if key in units
                               else value for key, value in changes.items()})
        lines.append(f"{name} {_tc(params, pair, **options)}")
    return "\n".join(lines) + "\n"


def emit(out_dir: str, tree: str) -> None:
    """Write every compared output of the imported package to
    ``out_dir``; ``tree`` is the checkout whose tests give the report."""
    from magmech.sweep import (PRESET_NAMES, figure_preset, render_records,
                               run_sweep)

    for pair, (lo, hi) in TC_ROWS.items():
        with open(os.path.join(out_dir, "tc_row_%s%s.txt" % pair),
                  "w") as fh:
            fh.write(_tc_row(pair, lo, hi))
    with open(os.path.join(out_dir, "tc_cases.txt"), "w") as fh:
        fh.write(_tc_cases())

    for name in PRESET_NAMES:
        spec = figure_preset(name)
        table = run_sweep(spec)
        for fmt in ("csv", "jsonl"):
            with open(os.path.join(out_dir, f"preset_{name}.{fmt}"),
                      "w") as fh:
                fh.write(render_records(table,
                                        replace(spec, output_format=fmt)))
    _run_cli(["preset", "fig2a", "--jobs", "2", "--out",
              os.path.join(out_dir, "preset_fig2a_jobs2.csv")],
             "preset_fig2a_jobs2", out_dir)
    for mode in MODES:
        for fmt in ("csv", "jsonl"):
            cfg = os.path.join(out_dir, f"{mode}_{fmt}.ini")
            with open(cfg, "w") as fh:
                fh.write(_config(mode, fmt))
        cfg = os.path.join(out_dir, f"{mode}_csv.ini")
        dump = os.path.join(out_dir, f"dump_{mode}")
        _run_cli(["point", "--config", cfg, "--dump-matrices", dump],
                 f"point_{mode}", out_dir)
        # the dumps beside the other outputs, as point_<mode>_A.txt; a
        # point without a steady state writes none
        if os.path.isdir(dump):
            for name in os.listdir(dump):
                os.replace(os.path.join(dump, name),
                           os.path.join(out_dir, f"point_{mode}_{name}"))
            os.rmdir(dump)
        for verb in ("tc", "validate"):
            _run_cli([verb, "--config", cfg], f"{verb}_{mode}", out_dir)
        for fmt in ("csv", "jsonl"):
            out = os.path.join(out_dir, f"sweep_{mode}.{fmt}")
            _run_cli(["sweep", "--config",
                      os.path.join(out_dir, f"{mode}_{fmt}.ini"),
                      "--out", out], f"sweep_{mode}_{fmt}", out_dir)
    for name, (mode, epsilon_d, more) in BREAKDOWNS.items():
        cfg = os.path.join(out_dir, f"{name}.ini")
        with open(cfg, "w") as fh:
            fh.write(_config(mode, "csv", epsilon_d, more))
        _run_cli(["point", "--config", cfg], f"point_{name}", out_dir)
    report = os.path.join(out_dir, "discrepancy_report.json")
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                    "no:cacheprovider", "tests/test_acceptance.py", "-k",
                    "tracked_discrepancy_report", "--discrepancy-report",
                    report], cwd=tree, check=False,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _columns(name: str, text: str) -> dict[str, list[str]]:
    """The cells of an output by column: CSV header names, flattened
    JSON keys (one cell per record, empty where a record lacks the key),
    or else one column of text lines."""
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        if rows:
            return {h: [r[i] if i < len(r) else "" for r in rows[1:]]
                    for i, h in enumerate(rows[0])}
    if name.endswith((".jsonl", ".json", ".stdout")):
        try:
            objs = ([json.loads(line) for line in text.splitlines()]
                    if name.endswith(".jsonl") else [json.loads(text)])
        except ValueError:
            objs = None
        if objs is not None:
            flat = [dict(_flatten(obj, "")) for obj in objs]
            keys = dict.fromkeys(key for row in flat for key in row)
            return {key: [row.get(key, "") for row in flat] for key in keys}
    return {"line": text.splitlines()}


def _flatten(obj, prefix: str):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key],
                                f"{prefix}.{key}" if prefix else key)
    elif isinstance(obj, list) and any(isinstance(v, (dict, list))
                                       for v in obj):
        for k, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}[{k}]")
    else:
        yield prefix, json.dumps(obj)


def _move(a: str, b: str) -> float | None:
    """|a - b| of two numeric cells (inf where one is NaN or infinite
    and the other not), or None if either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if math.isnan(x) and math.isnan(y) or x == y:
        return 0.0
    return abs(x - y) if math.isfinite(x - y) else math.inf


def describe(name: str, mine: str, theirs: str) -> list[str]:
    """One line per column of ``name`` that differs between the trees."""
    a, b = _columns(name, mine), _columns(name, theirs)
    lines = []
    for col in list(a) + [c for c in b if c not in a]:
        ca, cb = a.get(col), b.get(col)
        if ca is None or cb is None:
            side = "this" if cb is None else "the other"
            lines.append(f"  {col}: only in {side} tree")
            continue
        if len(ca) != len(cb):
            lines.append(f"  {col}: {len(ca)} cells here, {len(cb)} there")
            continue
        rows = [k for k, (x, y) in enumerate(zip(ca, cb)) if x != y]
        if not rows:
            continue
        moved = [(ca[k], cb[k]) for k in rows]
        moves = [_move(x, y) for x, y in moved]
        numeric = [m for m in moves if m is not None]
        text = len(moves) - len(numeric)
        line = f"  {col}: {len(moved)} of {len(ca)} cells differ"
        if numeric:
            line += f", largest move {max(numeric):.3g}"
        if text:
            line += f", {text} as text (e.g. {moved[moves.index(None)]!r})"
        if name.endswith((".csv", ".jsonl")):
            line += f"; {_row_ranges(rows)}"
        lines.append(line)
    return lines or ["  bytes differ, cells equal"]


def _row_ranges(rows: list[int]) -> str:
    """Ascending row indices as ranges: ``rows 0-20, 25``."""
    spans: list[list[int]] = []
    for k in rows:
        if spans and k == spans[-1][1] + 1:
            spans[-1][1] = k
        else:
            spans.append([k, k])
    return "rows " + ", ".join(f"{a}-{b}" if b > a else f"{a}"
                               for a, b in spans)


def _number(cell: str) -> float:
    return float(cell) if cell else math.nan


def _measure_moved(mine: str, theirs: str) -> bool:
    a, b = _number(mine), _number(theirs)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) != math.isnan(b)
    return not abs(a - b) <= MEASURE_TOL * max(abs(b), 1.0)


def refactor_rule(name: str, mine: str, theirs: str):
    """The refactor rule on one CSV output: (mask changes, exempt mask
    changes, measure moves), each a list of text lines."""
    a, b = _columns(name, mine), _columns(name, theirs)
    if len(a.get("stable", ())) != len(b.get("stable", ())):
        return [f"{name}: the trees have different points"], [], []
    flips, exempt = [], {}
    for k, (x, y) in enumerate(zip(a["stable"], b["stable"])):
        if x != y:
            line = f"{name} point {k}: stable {y} -> {x}"
            if abs(_number(b["margin"][k])) <= MARGIN_TOL:
                exempt[k] = line
            else:
                flips.append(line)
    moves = []
    for col in b:
        if not col.startswith(("E_", "st_")):
            continue
        if col not in a:
            moves.append(f"{name} {col}: only in the other tree")
            continue
        # an exempt point's measures come or go with its mask
        moved = [k for k, (x, y) in enumerate(zip(a[col], b[col]))
                 if k not in exempt and _measure_moved(x, y)]
        if moved:
            moves.append(f"{name} {col}: {len(moved)} cells, first at "
                         f"point {moved[0]} ({b[col][moved[0]]!r} -> "
                         f"{a[col][moved[0]]!r})")
    return flips, list(exempt.values()), moves


def src_lines(tree: str) -> int:
    """Lines of the Python files under the tree's ``src``."""
    total = 0
    for root, _, files in os.walk(os.path.join(tree, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def _outputs(tree: str, out_dir: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.Popen([sys.executable, SCRIPT, "--emit", out_dir,
                             "--tree", tree], env=env, cwd=out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="the other checkout's root")
    parser.add_argument("--rule", choices=("refactor",),
                        help="exit on this rule instead of on any change")
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    parser.add_argument("--tree", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit, args.tree)
        return 0
    if not args.against:
        parser.error("--against is required")
    trees = (os.path.dirname(os.path.dirname(SCRIPT)),
             os.path.abspath(args.against))
    mine, theirs = map(src_lines, trees)
    lines = f"src/ lines {mine - theirs:+d} ({mine} here, {theirs} there)"
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, side) for side in ("this", "other")]
        runs = []
        for tree, out_dir in zip(trees, dirs):
            os.makedirs(out_dir)
            runs.append(_outputs(tree, out_dir))
        if any([run.wait() for run in runs]):
            print("a tree failed to write its outputs", file=sys.stderr)
            return 1
        names = sorted(set().union(*map(os.listdir, dirs)))
        differ = 0
        rule = ([], [], [])
        for name in names:
            paths = [Path(out_dir, name) for out_dir in dirs]
            texts = [p.read_text() if p.exists() else None for p in paths]
            if texts[0] == texts[1]:
                continue
            differ += 1
            if None in texts:
                print(f"{name}: only in "
                      f"{'the other' if texts[0] is None else 'this'} tree")
                rule[0].append(f"{name}: only in one tree")
            else:
                print(f"{name}:")
                print("\n".join(describe(name, *texts)))
                if name.endswith(".csv"):
                    for found, more in zip(rule,
                                           refactor_rule(name, *texts)):
                        found.extend(more)
    if args.rule:
        return _verdict(*rule, mine - theirs)
    if differ:
        print(f"{differ} of {len(names)} outputs differ; {lines}")
        return 1
    print(f"identical: {len(names)} outputs; {lines}")
    return 0


def _verdict(flips, exempt, moves, net_lines: int) -> int:
    """Print the refactor rule's three verdicts; 1 if any fails."""
    checks = (
        ("stable mask", flips,
         [f"  exempt, within {MARGIN_TOL:.3g} of the boundary: {line}"
          for line in exempt]),
        (f"measures within {MEASURE_TOL:g} relative", moves, []),
        (f"src/ lines {net_lines:+d}",
         ["  more lines than the other tree"] if net_lines > 0 else [], []))
    for label, failures, notes in checks:
        print(f"refactor rule: {label}: {'FAIL' if failures else 'pass'}")
        for line in failures:
            print(f"  {line.strip()}")
        for line in notes:
            print(line)
    return 1 if any(failures for _, failures, _ in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
