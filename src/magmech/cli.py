"""Command-line interface.

Verbs: ``point`` (single pipeline evaluation), ``sweep`` (grid from a
config file), ``preset <name>`` (built-in figure grids), ``tc``
(critical temperature search) and ``validate`` (the kernel's verdict on
the configured point).  Exit code 0 on success, 1 on validation
failure, 2 on configuration errors.  Warnings go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from dataclasses import replace

from . import dynamics, lyapunov, measures
from .config import ConfigError, load_config
from .params import DRIFT_MODES
from .sweep import (LYAPUNOV_RESIDUAL, OUTCOMES, PRESET_NAMES, SINGULAR,
                    UNCONVERGED, UNPHYSICAL, SweepSpec, evaluate_point,
                    figure_preset, find_critical_temperature, point_matrices,
                    record_to_dict, render_records, run_sweep)

DIFFUSION_FLAGS = {"as-printed": "as_printed", "abs": "absolute_value",
                   "physical": "physical_sum"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="magmech",
        description="Steady-state quantum correlations of a passive-active "
                    "double-cavity magnomechanical system.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to the INI config file")
        p.add_argument("--diffusion", choices=sorted(DIFFUSION_FLAGS),
                       help="override the cavity-2 noise convention")
        p.add_argument("--drift", choices=DRIFT_MODES,
                       help="override the drift matrix variant")

    p_point = sub.add_parser("point", help="evaluate a single point")
    add_common(p_point)
    p_point.add_argument("--dump-matrices", metavar="DIR",
                         help="write drift/diffusion matrix dumps here")

    p_sweep = sub.add_parser("sweep", help="run the sweep from the config")
    add_common(p_sweep)

    p_preset = sub.add_parser("preset", help="run a built-in figure sweep")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    add_common(p_preset, config_required=False)

    p_tc = sub.add_parser("tc", help="critical temperature of a mode pair")
    add_common(p_tc)
    p_tc.add_argument("--pair", default="a2,m",
                      help="mode pair, e.g. a2,m (default)")

    p_val = sub.add_parser("validate", help="report the kernel's verdict")
    add_common(p_val)

    for p in (p_point, p_sweep, p_preset, p_tc):
        p.add_argument("--out", help="output file (default: stdout or "
                                     "<preset>.csv)")
    for p in (p_sweep, p_preset):
        p.add_argument("--jobs", type=_jobs, default=1,
                       help="parallel worker processes, each given "
                            "contiguous parts of the grid")

    return parser


@functools.cache
def _keep_freed_memory() -> None:
    """Keep freed heap memory in the process, where the C library has
    glibc's ``mallopt``.  By default glibc hands a sweep part's freed
    temporaries (about 2 MB) back to the OS, and the next part faults them
    in again; with these thresholds they, and a preset's output text, stay
    in the heap.  Setting either threshold turns off glibc's dynamic ones,
    so both are set, once per process: each ``mallopt`` call also
    consolidates glibc's fastbins."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no glibc; TypeError on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _jobs(text: str) -> int:
    """A ``--jobs`` value: a whole number of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _apply_overrides(params, args):
    if args.diffusion:
        params = replace(params,
                         diffusion_convention=DIFFUSION_FLAGS[args.diffusion])
    if args.drift:
        params = replace(params, drift_mode=args.drift)
    return params


def _writable(path):
    """``path``, checked before any evaluation: an OSError unless it is
    standard output or a file in a writable directory."""
    if path not in (None, "", "-") and (os.path.isdir(path) or not os.access(
            os.path.dirname(path) or ".", os.W_OK)):
        raise OSError(f"cannot write {path!r}: not a file in a writable "
                      "directory")
    return path


def _emit(text: str, out_path) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_warnings(outcome) -> None:
    """One standard-error line per outcome bit (``OUTCOMES``), in order
    of first appearance, with the number of points whose ``outcome``
    has it; the points that share an outcome are counted together."""
    counts: Counter = Counter()
    for bits, n in Counter(outcome).items():
        counts.update({name: n for b, name in enumerate(OUTCOMES)
                       if bits >> b & 1})
    for head, n in counts.items():
        noun = "point" if n == 1 else "points"
        print(f"warning: {head} ({n} {noun})", file=sys.stderr)


def cmd_point(args) -> int:
    cfg = load_config(args.config)
    params = _apply_overrides(cfg["params"], args)
    _writable(args.out)
    rec = evaluate_point(params)
    # a point without a steady state has no matrices to dump
    matrices = args.dump_matrices and point_matrices(params)
    if matrices:
        os.makedirs(args.dump_matrices, exist_ok=True)
        for name, M in zip(("A.txt", "D.txt"), matrices):
            dynamics.write_matrix(os.path.join(args.dump_matrices, name), M)
    _emit(json.dumps(record_to_dict(rec, ()), sort_keys=True, indent=2,
                     allow_nan=False) + "\n", args.out)
    _report_warnings([rec.outcome])
    return 0


def _run_and_emit(spec: SweepSpec, args, default_out=None) -> int:
    out = _writable(args.out or default_out)
    records = run_sweep(spec, jobs=args.jobs)
    _emit(render_records(records, spec), out)
    _report_warnings(records.outcome.tolist())
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    spec = cfg["spec"]
    if spec is None:
        raise ConfigError("config file has no [sweep] section")
    spec = replace(spec, base=_apply_overrides(spec.base, args))
    return _run_and_emit(spec, args, cfg["output"]["path"])


def cmd_preset(args) -> int:
    spec = figure_preset(args.name)
    spec = replace(spec, base=_apply_overrides(spec.base, args))
    return _run_and_emit(spec, args, f"{args.name}.csv")


def cmd_tc(args) -> int:
    cfg = load_config(args.config)
    params = _apply_overrides(cfg["params"], args)
    pair = tuple(p.strip() for p in args.pair.split(","))
    if pair not in measures.PAIRS and pair[::-1] not in measures.PAIRS:
        raise ConfigError(f"--pair must be one of "
                          f"{' '.join(','.join(p) for p in measures.PAIRS)}"
                          f" (in either order), got {args.pair!r}")
    _writable(args.out)
    tc, warnings = find_critical_temperature(params, pair)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _emit("%.17g\n" % tc, args.out)
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    params = _apply_overrides(cfg["params"], args)
    # an undriven point is checked at the drive kappa_1
    params = replace(params, epsilon_d=params.epsilon_d or params.kappa_1)
    failures = 0

    def check(label, ok, detail=""):
        nonlocal failures
        line = f"PASS {label}" if ok else f"FAIL {label} {detail}".rstrip()
        print(line)
        failures += 0 if ok else 1

    rec = evaluate_point(params)
    # a rule that nulls the point sets its highest bit, so its warning is
    # the last: after the bit's name, that warning quotes what it found
    said = (rec.warnings[-1][len(OUTCOMES[rec.outcome.bit_length() - 1]):]
            if rec.warnings else "")
    if rec.outcome >> SINGULAR & 1:
        check("steady state converged", False, f"(singular{said})")
    else:
        residual = ("(residual not finite)" if rec.residual is None
                    else f"(residual {rec.residual:.3e})")
        check("steady state converged", not rec.outcome >> UNCONVERGED & 1,
              residual)
        check("steady-state residual < 1e-9",
              rec.residual is not None and rec.residual < 1e-9, residual)

    # the kernel nulls a solved point that fails its residual or its
    # physicality gate, and its warning carries the failing value
    nulled = [(label, said.lstrip()) for bit, label in (
        (LYAPUNOV_RESIDUAL, f"Lyapunov residual < {lyapunov.RESIDUAL_MAX:g}"),
        (UNPHYSICAL, "covariance physicality >= -1e-9"))
        if rec.outcome >> bit & 1]
    for label, detail in nulled:
        check(label, False, detail)
    if rec.stable:
        bad = [(a, b) for a, b in measures.PAIRS
               for d in (f"st_{a}_to_{b}", f"st_{b}_to_{a}")
               if (rec.measures.get(d) or 0.0) > 1e-9
               and (rec.measures.get(f"E_{a}{b}") or 0.0) <= 0.0]
        check("steering implies entanglement", not bad, f"{bad}")
    elif not nulled:
        print("SKIP Lyapunov checks (configured point is not stable)")

    print(f"{failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"point": cmd_point, "sweep": cmd_sweep,
                "preset": cmd_preset, "tc": cmd_tc,
                "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
