"""Check that the tests catch a fixed list of source mutations.

Run from the repository root::

    python tests/mutants.py            # every mutation
    python tests/mutants.py NAME ...   # the named ones

Each mutation replaces one snippet of one file under ``src`` with
another, in a temporary copy of ``src`` and ``tests``, and runs only the
tests named for it, with the copy's ``src`` on ``PYTHONPATH``.  The
mutation is killed when one of them fails, and survives when all pass.
Before the mutations, the named tests run once on the unmutated copy,
which must pass them.  The script prints one line per mutation and
exits 1 if any mutation survives, if pytest cannot run its tests, or if
its snippet does not occur exactly once in its file (the list has
fallen behind the source).
pytest does not collect it.

A change that adds a gate adds the mutation that drops it here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml", "discrepancy_report.json")


class Mutation(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTATIONS = (
    Mutation(
        "stability_tolerance_zero", "src/magmech/dynamics.py",
        "TOL_STAB_REL = 1e-9", "TOL_STAB_REL = 0",
        ("tests/test_dynamics.py::"
         "test_a_margin_inside_the_tolerance_is_not_stable",)),
    Mutation(
        "thermal_occupation_np_expm1", "src/magmech/params.py",
        "(1.0 / np.fromiter(map(math.expm1, distinct.tolist()),",
        "(1.0 / np.fromiter(np.expm1(distinct),",
        ("tests/test_params.py::"
         "test_array_thermal_occupation_is_the_scalar_bit_for_bit",)),
    Mutation(
        "steering_directions_swapped", "src/magmech/measures.py",
        "steering(forward, det_a),\n"
        "                        steering(backward, det_c),",
        "steering(backward, det_c),\n"
        "                        steering(forward, det_a),",
        ("tests/test_measures.py::test_physicality_errors",
         "tests/test_measures.py::"
         "test_unphysical_slice_of_a_stack_is_null_with_message")),
    Mutation(
        "csv_unique_by_value", "src/magmech/sweep.py",
        "np.unique(block.view(np.int64), return_inverse=True)\n"
        "    values = distinct.view(float)",
        "np.unique(block, return_inverse=True)\n"
        "    values = distinct",
        ("tests/test_sweep.py::"
         "test_csv_writer_formats_each_distinct_value_once",
         "tests/test_sweep.py::"
         "test_csv_writer_is_the_csv_module_writer_byte_for_byte",
         "tests/test_sweep.py::"
         "test_csv_numeric_cells_are_the_oracles_byte_for_byte")),
    Mutation(
        "csv_quoting_skips_lf", "src/magmech/sweep.py",
        """map(text.__contains__, ',"\\r\\n')""",
        """map(text.__contains__, ',"\\r')""",
        ("tests/test_sweep.py::"
         "test_warnings_column_and_report_are_the_oracles_byte_for_byte",)),
    Mutation(
        "put_keeps_non_finite", "src/magmech/sweep.py",
        "table.values[name][points] = np.where(np.isfinite(values), values, "
        "np.nan)",
        "table.values[name][points] = values",
        ("tests/test_sweep.py::"
         "test_non_finite_values_are_written_as_nulls",)),
    Mutation(
        "axis_accepts_non_finite", "src/magmech/sweep.py",
        "            if not np.isfinite(self.values()).all():",
        "            if False:",
        ("tests/test_sweep.py::test_axis_values_must_be_finite",
         "tests/test_cli.py::test_cli_rejects_a_non_finite_axis")),
    Mutation(
        "check_drive_bypassed", "src/magmech/params.py",
        "        (not (math.isfinite(p.epsilon_d) and p.epsilon_d >= 0),",
        "        (False,",
        ("tests/test_steady_state.py::"
         "test_drive_must_be_finite_and_non_negative",
         "tests/test_steady_state.py::test_negative_drive_rejected",
         "tests/test_cli.py::"
         "test_cli_rejects_a_bad_drive_before_evaluating")),
    Mutation(
        "drift_mode_unchecked", "src/magmech/params.py",
        "        (p.drift_mode not in DRIFT_MODES,", "        (False,",
        ("tests/test_dynamics.py::test_drift_rejects_bad_arguments",)),
    Mutation(
        "grid_skips_validation", "src/magmech/sweep.py",
        "_evaluate_chunk(params, params.errors(), values,",
        "_evaluate_chunk(params, [None] * len(params), values,",
        ("tests/test_sweep.py::test_invalid_points_skip_the_steady_state",
         "tests/test_sweep.py::"
         "test_a_serial_sweep_validates_each_part_once")),
    Mutation(
        "picard_skip_at_slope_0_9", "src/magmech/steady_state.py",
        "(np.abs(slope) >= 1.0 + REPEL_TOL)", "(np.abs(slope) >= 0.9)",
        ("tests/test_steady_state.py::"
         "test_stacked_solver_matches_scalar_oracle_on_micro_sweep_grid",
         "tests/test_sweep.py::"
         "test_points_without_an_attracting_root_skip_the_picard_loop")),
    Mutation(
        "lyapunov_residual_gate_dropped", "src/magmech/sweep.py",
        "stands = finite & (residual < lyapunov.RESIDUAL_MAX)",
        "stands = finite & (residual < np.inf)",
        ("tests/test_sweep.py::"
         "test_a_point_that_misses_the_lyapunov_residual_gate_is_nulled",
         "tests/test_acceptance.py::"
         "test_lyapunov_residual_at_all_preset_points")),
    Mutation(
        "tc_ignores_fallen_unit_solutions", "src/magmech/sweep.py",
        "    if stands.all():\n        return V\n",
        "    if True:\n        return V\n",
        ("tests/test_sweep.py::"
         "test_the_tc_search_gates_its_unit_solutions_as_the_kernel_does",
         "tests/test_sweep.py::"
         "test_preset_points_whose_unit_solutions_miss_the_residual_gate")),
    Mutation(
        "physicality_gate_dropped", "src/magmech/sweep.py",
        "unphysical = ((physicality < lyapunov.PHYSICALITY_MIN)",
        "unphysical = ((physicality < -np.inf)",
        ("tests/test_sweep.py::"
         "test_the_kernel_nulls_an_unphysical_covariance",
         "tests/test_cli.py::"
         "test_cli_validate_fails_the_check_that_nulled_the_point")),
    Mutation(
        "picard_start_off_zero", "src/magmech/steady_state.py",
        "    qa = q[idx]\n", "    qa = q[idx] + 1.0\n",
        ("tests/test_steady_state.py::"
         "test_picard_loop_is_the_oracle_loop_on_the_micro_sweep_grid",
         "tests/test_steady_state.py::"
         "test_one_root_slices_are_closed_and_multistable_slices_loop")),
    Mutation(
        "closed_form_on_three_roots", "src/magmech/steady_state.py",
        "closed = (solved & ~three & np.isfinite(q)",
        "closed = (solved & np.isfinite(q)",
        ("tests/test_steady_state.py::"
         "test_one_root_slices_are_closed_and_multistable_slices_loop",
         "tests/test_steady_state.py::"
         "test_stacked_solver_matches_scalar_oracle_on_micro_sweep_grid")),
    Mutation(
        "tc_tree_by_linspace", "src/magmech/sweep.py",
        "        grid = [t for a, b in zip(grid, grid[1:])\n"
        "                for t in (a, 0.5 * (a + b))] + [hi]",
        "        grid = np.linspace(lo, hi, 2 * len(grid) - 1).tolist()",
        ("tests/test_sweep.py::"
         "test_critical_temperature_matches_sequential_bisection",)),
    Mutation(
        "one_root_reported_unconverged", "src/magmech/steady_state.py",
        "converged[closed] = attracts", "converged[closed] = False",
        ("tests/test_steady_state.py::"
         "test_a_monostable_point_takes_its_cubic_root",
         "tests/test_sweep.py::"
         "test_points_without_an_attracting_root_skip_the_picard_loop")),
    Mutation(
        "physicality_form_without_half", "src/magmech/lyapunov.py",
        "form = 0.5j * symplectic_form(size // 2)",
        "form = 1j * symplectic_form(size // 2)",
        ("tests/test_lyapunov.py::test_physicality_of_simple_states",)),
    Mutation(
        "field_set_twice_accepted", "src/magmech/sweep.py",
        "if k < i and target == field:", "if False:",
        ("tests/test_sweep.py::"
         "test_axes_and_links_set_a_field_at_most_once",
         "tests/test_cli.py::"
         "test_cli_sweep_rejects_a_setting_it_would_ignore")),
    Mutation(
        "setting_reads_a_field_set_beside_it", "src/magmech/sweep.py",
        "if k != i and target in reads and at >= step:",
        "if k != i and target in reads and at > step:",
        ("tests/test_sweep.py::"
         "test_no_setting_reads_a_field_set_beside_or_after_it",
         "tests/test_cli.py::"
         "test_cli_sweep_rejects_a_setting_it_would_ignore")),
    Mutation(
        "setting_reads_a_field_set_after_it", "src/magmech/sweep.py",
        "if k != i and target in reads and at >= step:",
        "if k != i and target in reads and at == step:",
        ("tests/test_sweep.py::"
         "test_no_setting_reads_a_field_set_beside_or_after_it",
         "tests/test_cli.py::"
         "test_cli_sweep_rejects_a_setting_it_would_ignore")),
    Mutation(
        "sweep_keys_unchecked", "src/magmech/config.py",
        '_check_keys(section, "axis1",', '_check_keys((), "axis1",',
        ("tests/test_cli.py::"
         "test_cli_sweep_rejects_a_setting_it_would_ignore",)),
    Mutation(
        "config_parse_errors_unwrapped", "src/magmech/config.py",
        "    except configparser.Error as exc:", "    except () as exc:",
        ("tests/test_cli.py::test_cli_config_error_names_its_cause",)),
    Mutation(
        "output_keys_unchecked", "src/magmech/config.py",
        '_check_keys(section, "format",', '_check_keys((), "format",',
        ("tests/test_cli.py::"
         "test_cli_sweep_rejects_a_setting_it_would_ignore",)),
    Mutation(
        "lyapunov_no_refinement", "src/magmech/lyapunov.py",
        "        V = V + spectral(A @ V + V @ _transpose(A) + D)",
        "        V = V",
        ("tests/test_acceptance.py::"
         "test_median_lyapunov_residual_of_each_preset",)),
    Mutation(
        "cli_default_heap_policy", "src/magmech/cli.py",
        "    _keep_freed_memory()\n    parser = _build_parser()",
        "    parser = _build_parser()",
        ("tests/test_cli.py::"
         "test_cli_sweep_reuses_freed_memory_instead_of_faulting_it_in",)),
    Mutation(
        "validate_steering_check_disabled", "src/magmech/cli.py",
        "if (rec.measures.get(d) or 0.0) > 1e-9",
        "if (rec.measures.get(d) or 0.0) > 1e300",
        ("tests/test_cli.py::"
         "test_cli_validate_fails_steering_without_entanglement",)),
    Mutation(
        "mean_field_rule_in_direct_g", "src/magmech/steady_state.py",
        '    if s.coupling_mode == "microscopic":\n        failed |=',
        "    if True:\n        failed |=",
        ("tests/test_steady_state.py::"
         "test_direct_mode_keeps_infinite_drive_point",)),
    Mutation(
        "division_by_zero_rule_dropped", "src/magmech/steady_state.py",
        "    failed = f.C == 0\n", "    failed = np.zeros(n, dtype=bool)\n",
        ("tests/test_steady_state.py::"
         "test_breakdown_points_keep_their_outcome",)),
    Mutation(
        "tc_null_reason_dropped", "src/magmech/sweep.py",
        'raise ValueError(f"{column} undefined: {gate[-1]}; "',
        'raise ValueError(f"{column} is not positive at T = 0; "',
        ("tests/test_sweep.py::"
         "test_a_tc_search_names_the_gate_its_unit_solution_misses",
         "tests/test_sweep.py::test_unstable_point_has_no_unit_noise_solutions",
         "tests/test_sweep.py::"
         "test_unconverged_point_has_no_unit_noise_solutions")),
    Mutation(
        "thread_shares_joined_share_by_share", "src/magmech/sweep.py",
        "SweepTable.concat([tables[k % shares][k // shares]\n"
        "                              for k in range(len(parts))])",
        "SweepTable.concat([t for s in tables for t in s])",
        ("tests/test_sweep.py::test_threaded_parts_join_in_grid_order",)),
    Mutation(
        "thread_shares_outside_the_callers_context", "src/magmech/sweep.py",
        "contextvars.copy_context().run, share, t)", "share, t)",
        ("tests/test_sweep.py::test_threaded_parts_join_in_grid_order",)),
    Mutation(
        "thread_shares_left_running", "src/magmech/sweep.py",
        "    try:\n        mine = share(0)\n    finally:\n",
        "    if True:\n        mine = share(0)\n    if True:\n",
        ("tests/test_sweep.py::"
         "test_an_error_in_a_share_is_raised_after_every_share_ends",)),
    Mutation(
        "thread_pool_kept_across_fork", "src/magmech/sweep.py",
        "    key = (os.getpid(), threads)", "    key = (0, threads)",
        ("tests/test_sweep.py::test_a_fork_after_the_worker_threads_exist",)),
    Mutation(
        "negative_diffusion_bit_skipped", "src/magmech/sweep.py",
        "            self.bits[points] |= 1 << bit\n",
        "            self.bits[points] |= (1 << bit) & ~(1 << NEGATIVE_DIFFUSION)"
        "\n",
        ("tests/test_warnings.py::"
         "test_the_report_counts_each_category_in_order_of_first_appearance",
         "tests/test_sweep.py::"
         "test_warnings_column_and_report_are_the_oracles_byte_for_byte")),
    Mutation(
        "out_path_unchecked", "src/magmech/cli.py",
        '    if path not in (None, "", "-") and (',
        "    if False and (",
        ("tests/test_cli.py::"
         "test_cli_out_in_a_missing_directory_fails_before_evaluating",
         "tests/test_cli.py::"
         "test_cli_out_that_is_a_directory_fails_before_evaluating")),
    Mutation(
        "link_accepts_non_finite_factor", "src/magmech/sweep.py",
        "            if not math.isfinite(factor):", "            if False:",
        ("tests/test_sweep.py::test_link_factor_must_be_finite",
         "tests/test_cli.py::test_cli_rejects_a_non_finite_link_factor")),
)


def _copy(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(src, os.path.join(dest, name))


def _pytest(tree: str, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, capture_output=True, text=True)


def _first_failure(output: str) -> str:
    """The first failed test of pytest's summary, or its last line."""
    lines = output.strip().splitlines() or [""]
    for line in lines:
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*",
                        help="mutations to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTATIONS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutations: {', '.join(unknown)}; known: "
                     f"{', '.join(known)}")
    chosen = [known[n] for n in args.names] if args.names else MUTATIONS

    bad = 0
    with tempfile.TemporaryDirectory(prefix="magmech-mutants-") as tmp:
        clean = os.path.join(tmp, "clean")
        _copy(clean)
        tests = sorted({t for m in chosen for t in m.tests})
        result = _pytest(clean, tests)
        if result.returncode != 0:
            print(f"unmutated tree fails: {_first_failure(result.stdout)}")
            return 1
        for m in chosen:
            tree = os.path.join(tmp, m.name)
            _copy(tree)
            path = os.path.join(tree, m.path)
            with open(path) as fh:
                text = fh.read()
            if text.count(m.old) != 1:
                print(f"STALE    {m.name}: its snippet occurs "
                      f"{text.count(m.old)} times in {m.path}")
                bad += 1
                continue
            with open(path, "w") as fh:
                fh.write(text.replace(m.old, m.new))
            start = time.perf_counter()
            result = _pytest(tree, m.tests)
            took = time.perf_counter() - start
            # pytest exits 1 when a test failed; 2 and up when it could not
            # run them, which kills nothing
            if result.returncode == 1:
                print(f"killed   {m.name} by "
                      f"{_first_failure(result.stdout)} ({took:.1f} s)")
            else:
                verdict = "SURVIVED" if result.returncode == 0 else "ERROR   "
                print(f"{verdict} {m.name}: "
                      f"{_first_failure(result.stdout)} ({took:.1f} s)")
                bad += 1
            shutil.rmtree(tree)
    print(f"{len(chosen) - bad} of {len(chosen)} mutations killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
