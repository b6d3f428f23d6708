"""Command-line interface.

Verbs: ``point`` (single pipeline evaluation), ``sweep`` (grid from a
config file), ``preset <name>`` (built-in figure grids), ``tc``
(critical temperature search) and ``validate`` (invariant battery on
the configured point).  Exit code 0 on success, 1 on validation
failure, 2 on configuration errors.  Warnings go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import dynamics, measures
from .config import ConfigError, load_config
from .params import eta_ratio, thermal_occupation
from .sweep import (PRESET_NAMES, SweepSpec, evaluate_point, figure_preset,
                    find_critical_temperature, record_to_dict, render_records,
                    run_sweep)

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
        p.add_argument("--drift", choices=("derived", "printed"),
                       default=None, help="drift matrix variant")

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

    p_val = sub.add_parser("validate", help="run the invariant battery")
    add_common(p_val)

    for p in (p_point, p_sweep, p_preset, p_tc):
        p.add_argument("--out", help="output file (default: stdout or "
                                     "<preset>.csv)")
    for p in (p_sweep, p_preset):
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes, each given whole "
                            "chunks of points")

    return parser


def _apply_overrides(params, args):
    if args.diffusion:
        params = replace(params,
                         diffusion_convention=DIFFUSION_FLAGS[args.diffusion])
    return params


def _drift_mode(args, default="derived"):
    return args.drift if args.drift else default


def _emit(text: str, out_path) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_warnings(warnings) -> None:
    """One standard-error line per warning category, in order of first
    appearance, with the number of points (each a sequence of warnings)
    that raised it.  A category is the text before the first ':' or ' ('."""
    counts: dict[str, int] = {}
    for point in warnings:
        for head in {w.split(":", 1)[0].split(" (", 1)[0]: None
                     for w in point}:
            counts[head] = counts.get(head, 0) + 1
    for head, n in counts.items():
        noun = "point" if n == 1 else "points"
        print(f"warning: {head} ({n} {noun})", file=sys.stderr)


def cmd_point(args) -> int:
    cfg = load_config(args.config)
    params = _apply_overrides(cfg["params"], args)
    rec, matrices = evaluate_point(params, drift_mode=_drift_mode(args),
                                   epsilon_d=cfg["epsilon_d"], matrices=True)
    # a point without a steady state has no matrices to dump
    if args.dump_matrices and matrices is not None:
        os.makedirs(args.dump_matrices, exist_ok=True)
        for name, M in zip(("A.txt", "D.txt"), matrices):
            dynamics.write_matrix(os.path.join(args.dump_matrices, name), M)
    _emit(json.dumps(record_to_dict(rec, ()), sort_keys=True, indent=2)
          + "\n", args.out)
    _report_warnings([rec.warnings])
    return 0


def _run_and_emit(spec: SweepSpec, args, default_out=None) -> int:
    records = run_sweep(spec, jobs=max(args.jobs, 1))
    out = args.out or default_out
    _emit(render_records(records, spec), out)
    _report_warnings(records.warnings)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    spec = cfg["spec"]
    if spec is None:
        raise ConfigError("config file has no [sweep] section")
    base = _apply_overrides(spec.base, args)
    spec = replace(spec, base=base,
                   drift_mode=_drift_mode(args, spec.drift_mode))
    return _run_and_emit(spec, args, cfg["output"]["path"])


def cmd_preset(args) -> int:
    spec = figure_preset(args.name)
    base = _apply_overrides(spec.base, args)
    spec = replace(spec, base=base, drift_mode=_drift_mode(args))
    return _run_and_emit(spec, args, f"{args.name}.csv")


def cmd_tc(args) -> int:
    cfg = load_config(args.config)
    params = _apply_overrides(cfg["params"], args)
    pair = tuple(p.strip() for p in args.pair.split(","))
    # E_N does not depend on the order of the pair
    if pair[::-1] in measures.PAIRS:
        pair = pair[::-1]
    if pair not in measures.PAIRS:
        raise ConfigError(f"--pair must be one of "
                          f"{' '.join(','.join(p) for p in measures.PAIRS)}"
                          f" (in either order), got {args.pair!r}")
    tc, warnings = find_critical_temperature(
        params, pair, drift_mode=_drift_mode(args),
        epsilon_d=cfg["epsilon_d"])
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _emit("%.17g\n" % tc, args.out)
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    params = _apply_overrides(cfg["params"], args)
    drift_mode = _drift_mode(args)
    epsilon_d = cfg["epsilon_d"] or params.kappa_1
    failures = 0

    def check(label, ok, detail=""):
        nonlocal failures
        line = f"PASS {label}" if ok else f"FAIL {label} {detail}".rstrip()
        print(line)
        failures += 0 if ok else 1

    n_lo = thermal_occupation(params.omega_b, 0.1)
    n_hi = thermal_occupation(params.omega_b, 0.2)
    check("thermal occupation increases with temperature", n_hi > n_lo)
    check("thermal occupation decreases with frequency",
          thermal_occupation(2 * params.omega_b, 0.1) < n_lo)

    scaled = replace(params, kappa_1=2 * params.kappa_1,
                     kappa_2=2 * params.kappa_2, gain_g=2 * params.gain_g)
    check("eta invariant under joint rate rescaling",
          abs(eta_ratio(scaled) - eta_ratio(params)) < 1e-12)

    rec, matrices = evaluate_point(params, drift_mode=drift_mode,
                                   epsilon_d=epsilon_d, matrices=True)
    singular = [w.split(": ", 1)[1] for w in rec.warnings
                if w.startswith("steady state singular: ")]
    if singular:
        check("steady state converged", False, f"(singular: {singular[0]})")
    else:
        # the kernel builds matrices from a converged steady state only
        check("steady state converged", matrices is not None,
              f"(residual {rec.residual:.3e})")
        check("steady-state residual < 1e-9", rec.residual < 1e-9,
              f"(residual {rec.residual:.3e})")

    if rec.stable:
        check("Lyapunov residual < 1e-10",
              rec.lyap_residual is not None and rec.lyap_residual < 1e-10,
              f"(residual {rec.lyap_residual})")
        if np.all(np.diag(matrices[1]) >= 0):
            check("covariance physicality >= -1e-9",
                  rec.physicality is not None and rec.physicality > -1e-9,
                  f"(min eig {rec.physicality})")
        else:
            print("SKIP covariance physicality (negative diffusion "
                  "convention at this point)")
        bad = [
            (a, b) for a, b in measures.PAIRS
            for d, other in ((f"st_{a}_to_{b}", f"E_{a}{b}"),
                             (f"st_{b}_to_{a}", f"E_{a}{b}"))
            if (rec.measures.get(d) or 0.0) > 1e-9
            and (rec.measures.get(other) or 0.0) <= 0.0
        ]
        check("steering implies entanglement", not bad, f"{bad}")
    else:
        print("SKIP Lyapunov checks (configured point is not stable)")

    print(f"{failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
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
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
