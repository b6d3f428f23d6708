"""Write ``reference.npz``: the seed-0 outputs the benchmark checks against.

Run from the repository root, on purpose only, when a change is meant
to alter the numbers::

    python3 perfbench/make_reference.py

The sweeps run from the shipped figure presets (``figure_preset``), and
the script first asserts that the benchmark's seed-0 configs parse to
exactly those specs, so the benchmark's generated inputs reproduce the
presets.  micro_sweep and the Tc searches have no preset and run from
the benchmark's own seed-0 inputs.
"""

from __future__ import annotations

import os
import sys

import numpy as np

import check
import run
import workloads


def table_of(magmech, spec, columns, noise, rows=None) -> check.Table:
    """Parsed output of a sweep; ``rows`` picks rows of a 2-D grid."""
    records = magmech.run_sweep(spec)
    if rows is not None:
        n = spec.axes[1].count
        records = [rec for r in rows for rec in records[r * n:(r + 1) * n]]
    text = magmech.sweep.render_records(records, spec)
    return check.parse_csv(text, columns, noise)


def main() -> int:
    magmech = run.import_magmech()
    preset = magmech.figure_preset
    tables, failures = {}, 0

    def add(key, spec, calls, rows=None):
        nonlocal failures
        noise = np.concatenate([c.negative_noise for c in calls])
        table = table_of(magmech, spec, calls[0].columns, noise, rows)
        failures += int(check.invariant_failures(table).sum())
        tables[key] = check.Reference.of(table)
        print(f"{key}: {len(table)} points, {int(table.stable.sum())} stable",
              flush=True)

    work = os.path.join(run.WORK, "reference")
    grid = workloads.make("grid2d", magmech, 0, work)
    spec = grid.spec(grid.block_config(0, len(grid.rows)))
    assert spec == preset("fig2a"), "grid2d inputs differ from fig2a"
    add("grid2d", spec, grid.calls,
        range(0, len(grid.rows), workloads.GRID_ROW_STRIDE))

    lines = workloads.make("lines_1d", magmech, 0, work)
    for call in lines.calls:
        spec = lines.spec(call.config)
        assert spec == preset(call.key), f"{call.key} inputs differ"
        add(call.key, spec, [call])

    micro = workloads.make("micro_sweep", magmech, 0, work)
    call = micro.calls[0]
    add(call.key, micro.spec(call.config), [call])

    tc_curve = workloads.make("tc_curve", magmech, 0, work)
    tc, bad_tc = {}, 0
    for c in tc_curve.calls:
        result = tc_curve.collect(c, tc_curve.execute(c))
        tc[c.key] = result[0]
        bad_tc += int(tc_curve.failures(c, result).sum())
    print(f"tc: {len(tc)} searches, {bad_tc} failing the checks")

    if failures or bad_tc:
        print(f"reference fails its own invariants: {failures} points, "
              f"{bad_tc} searches", file=sys.stderr)
        return 1
    check.save_reference(check.REFERENCE, tables, tc)
    print(f"wrote {os.path.relpath(check.REFERENCE, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
