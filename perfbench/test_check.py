"""The correctness check behind bad_frac must catch small errors.

Run from the repository root::

    python3 -m pytest perfbench/test_check.py
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return check.load_reference()


@pytest.fixture(scope="module", params=["fig5a", "fig7b"])
def output(request):
    """(key, parsed package output) of a seed-0 preset, every point of
    which has net gain in cavity 2 and hence negative noise."""
    magmech = run.import_magmech()
    spec = magmech.figure_preset(request.param)
    text = magmech.sweep.render_records(magmech.run_sweep(spec), spec)
    columns = check.expand_quantities(spec.quantities)
    n = spec.axes[0].count
    return request.param, check.parse_csv(text, columns, np.ones(n, bool))


def bad_frac(table, ref):
    return check.table_failures(table, ref).mean()


def copy(table):
    return replace(table, stable=table.stable.copy(),
                   values=table.values.copy())


def test_package_output_passes(output, reference):
    key, table = output
    assert bad_frac(table, reference[0][key]) == 0.0


def test_measure_perturbed_by_1e9_relative_is_caught(output, reference):
    key, table = output
    table = copy(table)
    i, j = np.argwhere(np.abs(np.nan_to_num(table.values)) > 1e-3)[0]
    table.values[i, j] *= 1.0 + 1e-9
    assert bad_frac(table, reference[0][key]) > 0.0


@pytest.mark.parametrize("was_stable", [True, False])
def test_flipped_stable_flag_is_caught(output, reference, was_stable):
    key, table = output
    ref = reference[0][key]
    table = copy(table)
    i = np.flatnonzero((table.stable == was_stable) & ~ref.near_boundary)[0]
    table.stable[i] = not was_stable
    assert bad_frac(table, ref) > 0.0
    assert bad_frac(table, None) > 0.0  # the invariants alone see it too


def test_tc_off_by_more_than_1_mK_is_caught(reference):
    tc = np.array(list(reference[1].values()))
    below, above = np.full(len(tc), 0.01), np.zeros(len(tc))
    assert check.tc_failures(tc, below, above, tc).mean() == 0.0
    moved = tc.copy()
    moved[0] += 1.5e-3
    assert check.tc_failures(moved, below, above, tc).mean() > 0.0
    above[0] = 1e-3  # still entangled 1 mK above Tc
    assert check.tc_failures(tc, below, above).mean() > 0.0
