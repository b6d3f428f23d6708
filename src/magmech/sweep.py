"""Parameter-sweep engine: the stacked pipeline kernel, grid sweeps,
critical temperature search and the named figure presets.

Every grid point is an independent pure computation (steady state ->
drift/diffusion -> stability -> Lyapunov -> measures).  A stack of
points goes in as a :class:`~magmech.params.ParamStack` and comes out as
a :class:`SweepTable` of columns, one point being a stack of one.  A
grid runs as parts of ``CHUNK_POINTS`` points, one stack each, in
process or in parallel, and their tables are joined.
Tables keep row-major axis order, and unstable points carry explicit
nulls, never zeros: NaN in a table, empty in CSV, ``null`` in JSON.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from io import StringIO
from types import SimpleNamespace

import numpy as np

from . import dynamics, lyapunov, measures
from .params import (NUMERIC_FIELDS, ParamStack, PhysicalParams,
                     reference_baseline)
from .steady_state import effective_coupling, solve_steady_states

E_COLUMNS = tuple("E_%s%s" % p for p in measures.PAIRS)
ST_COLUMNS = tuple(col for a, b in measures.PAIRS
                   for col in (f"st_{a}_to_{b}", f"st_{b}_to_{a}"))
MEASURE_COLUMNS = E_COLUMNS + ST_COLUMNS
DIAGNOSTIC_COLUMNS = ("margin", "physicality", "residual", "lyap_residual")
AMPLITUDE_COLUMNS = ("abs_a1", "abs_a2", "abs_m", "q_avg")

# the mode pair of each measure column, first-listed mode first, and
# the column's place in measures.PairMeasures: E_N, forward, backward
_PAIR_OF = {col: (pair, place) for pair in measures.PAIRS
            for place, col in enumerate(("E_%s%s" % pair,
                                         "st_%s_to_%s" % pair,
                                         "st_%s_to_%s" % pair[::-1]))}

AXIS_NAMES = set(NUMERIC_FIELDS) | {"eta"}

# Points per part of a grid, serial or in a worker: the most that one
# kernel stack holds.  Each stage pays a fixed Python and NumPy cost per
# call: a serial fig2a runs about 1.3x faster in parts of 256 than of
# 64, and no faster in parts of 1024, which peak 7 MiB higher.
CHUNK_POINTS = 256

TC_T_MAX = 2.0  # K: the Tc search scans [0, TC_T_MAX]
TC_COARSE_POINTS = 41  # in as many temperatures
TC_TOL_T = 1e-3  # K: the width at which its bisection stops
TC_TOL_E = 1e-6  # a pair whose E_N is at most this is not entangled


@dataclass(frozen=True)
class SweepAxis:
    """One linear grid axis over a parameter.

    ``name`` is a numeric field of :class:`PhysicalParams`, or the
    derived ratio ``eta`` which sets ``gain_g = kappa_2 - eta*kappa_1``.
    """

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis parameter {self.name!r}")
        if self.count < 2:
            raise ValueError("axis point count must be at least 2")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(self.values()).all():
                raise ValueError(f"axis {self.name} from {self.start!r} "
                                 f"to {self.stop!r} is not finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: base point, one or two axes, linked fields.

    The base's ``SHARED_FIELDS``, its modes and drive, hold at every
    point.  ``links`` are (target, source, factor) triples applied after
    the axis values, e.g. ``("Delta_2", "Delta_1", 1.0)`` keeps the two
    cavity detunings equal while ``Delta_1`` is swept; no two axes or
    links set one field, and none reads a field set beside or after it
    (an ``eta`` axis reads ``kappa_1`` and ``kappa_2``).  ``quantities``
    selects the reported measure columns (``"all"`` for every pair);
    requesting a steering direction implies the matching entanglement
    column.  ``"amplitudes"`` adds the steady-state amplitude columns.
    """

    base: PhysicalParams
    axes: tuple[SweepAxis, ...]
    quantities: tuple[str, ...] = ("all",)
    links: tuple[tuple[str, str, float], ...] = ()
    output_format: str = "csv"

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep needs one or two axes")
        if self.output_format not in ("csv", "jsonl"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        for target, source, _ in self.links:
            if target not in NUMERIC_FIELDS:
                raise ValueError(f"unknown link target {target!r}")
            if source not in NUMERIC_FIELDS:
                raise ValueError(f"unknown link source {source!r}")
        # each setting's name, step, field set and fields read: the axes
        # are step 0 and read the base, each link is a step of its own
        settings = [(f"axis {a.name}", 0, "gain_g", ("kappa_1", "kappa_2"))
                    if a.name == "eta" else (f"axis {a.name}", 0, a.name, ())
                    for a in self.axes]
        settings += [(f"link {t}:{s}", step, t, (s,))
                     for step, (t, s, _) in enumerate(self.links, 1)]
        for i, (what, step, field, reads) in enumerate(settings):
            for k, (other, at, target, _) in enumerate(settings):
                if k < i and target == field:
                    raise ValueError(f"{what} sets {field}, which {other} "
                                     "already sets")
                if k != i and target in reads and at >= step:
                    raise ValueError(f"{what} reads {target}, which {other} "
                                     "sets " + ("later" if at > step
                                                else "in the same step"))
        normalize_quantities(self.quantities)

    def axis_names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)


@dataclass
class SweepRecord:
    """One point of a sweep: a row of a :class:`SweepTable`.

    ``measures`` maps each requested measure column to a float, or to
    None when the point is unstable or the measure failed; diagnostics
    carry the stability margin (rad/s), the minimum eigenvalue of
    V + (i/2)Omega, the mean-field and Lyapunov residuals, and any
    warnings raised along the way.
    """

    axis_values: tuple[float, ...]
    stable: bool
    measures: dict[str, float | None]
    margin: float | None = None
    physicality: float | None = None
    residual: float | None = None
    lyap_residual: float | None = None
    amplitudes: tuple[float, float, float, float] | None = None
    warnings: tuple[str, ...] = ()


@dataclass(eq=False)
class SweepTable(Sequence):
    """The records of a run of points as columns, in row-major order;
    indexing gives :class:`SweepRecord` rows, built on access.

    ``values`` maps each of ``DIAGNOSTIC_COLUMNS``, each requested
    measure and any requested ``AMPLITUDE_COLUMNS`` to an (N,) float
    array.  Each entry is finite, or NaN where it is null: a value that
    is not finite, such as the residual of an overflowed drive, is null.
    """

    axis_values: np.ndarray
    stable: np.ndarray
    values: dict[str, np.ndarray]
    warnings: list[list[str]]
    columns: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.stable)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        cell = {c: None if math.isnan(v[k]) else float(v[k])
                for c, v in self.values.items()}.get
        amplitudes = tuple(map(cell, AMPLITUDE_COLUMNS))
        return SweepRecord(tuple(self.axis_values[k].tolist()),
                           bool(self.stable[k]),
                           {c: cell(c) for c in self.columns},
                           *map(cell, DIAGNOSTIC_COLUMNS),
                           None if amplitudes == (None,) * 4 else amplitudes,
                           tuple(self.warnings[k]))

    @classmethod
    def concat(cls, parts) -> "SweepTable":
        """The tables ``parts``, one after the other."""
        def joined(get):
            return np.concatenate([get(p) for p in parts])

        names = parts[0].values
        return cls(joined(lambda p: p.axis_values),
                   joined(lambda p: p.stable),
                   {c: joined(lambda p: p.values[c]) for c in names},
                   [w for p in parts for w in p.warnings], parts[0].columns)

    @classmethod
    def of(cls, rows, spec: "SweepSpec") -> "SweepTable":
        """``rows`` as a table: a table as it is, a sequence of
        :class:`SweepRecord` rows of ``spec`` stacked."""
        if isinstance(rows, SweepTable):
            return rows
        columns, with_amplitudes = normalize_quantities(spec.quantities)
        cells = {c: [getattr(r, c) for r in rows] for c in DIAGNOSTIC_COLUMNS}
        cells.update({c: [r.measures.get(c) for r in rows] for c in columns})
        for i, c in enumerate(AMPLITUDE_COLUMNS if with_amplitudes else ()):
            cells[c] = [r.amplitudes and r.amplitudes[i] for r in rows]
        return cls(np.array([r.axis_values for r in rows],
                            dtype=float).reshape(len(rows), len(spec.axes)),
                   np.array([r.stable for r in rows], dtype=bool),
                   {c: np.array(v, dtype=float) for c, v in cells.items()},
                   [list(r.warnings) for r in rows], columns)


def normalize_quantities(quantities) -> tuple[tuple[str, ...], bool]:
    """Expand a quantities request into measure columns.

    Returns (measure column tuple in canonical order, amplitudes flag).
    A requested steering direction pulls in the entanglement column of
    the same pair so that steering values can always be cross-checked
    against entanglement.
    """
    requested = set()
    with_amplitudes = False
    for q in quantities:
        if q == "all":
            requested.update(MEASURE_COLUMNS)
        elif q == "amplitudes":
            with_amplitudes = True
        elif q == "margin":
            pass  # the stability margin is always reported
        elif q in MEASURE_COLUMNS:
            requested.update((q, "E_%s%s" % _PAIR_OF[q][0]))
        else:
            raise ValueError(f"unknown quantity {q!r}")
    cols = tuple(c for c in MEASURE_COLUMNS if c in requested)
    return cols, with_amplitudes


def _evaluate_chunk(params: ParamStack, invalid: list, axis_values,
                    quantities) -> SweepTable:
    """Run the pipeline for a stack of points and return its table;
    ``invalid`` holds each point's broken rule or None, as
    :meth:`~magmech.params.ParamStack.errors` names it, and
    ``axis_values`` is (N, n_axes).  The block of :func:`_gate` fills the
    rows of the points with a steady state.  Every stacked operation acts
    slice by slice, so a point's record does not depend on its stack.
    """
    columns, with_amplitudes = normalize_quantities(quantities)
    n = len(params)
    names = DIAGNOSTIC_COLUMNS + columns + (AMPLITUDE_COLUMNS
                                            if with_amplitudes else ())
    table = SweepTable(np.asarray(axis_values, dtype=float),
                       np.zeros(n, dtype=bool),
                       {c: np.full(n, np.nan) for c in names},
                       [[] for _ in range(n)], columns)
    state, solved, block = _gate(params, invalid, table.warnings)
    _put(table, "residual", *solved)
    if block is not None:
        _evaluate_block(table, state, *block, with_amplitudes)
    return table


def _put(table: SweepTable, name: str, points, values) -> None:
    """Store ``values`` in rows ``points`` of a column, non-finite as NaN."""
    table.values[name][points] = np.where(np.isfinite(values), values, np.nan)


def _gate(params: ParamStack, invalid: list, warnings: list[list[str]]):
    """The kernel's front stages: ``(state, solved, block)``.  The
    points that ``invalid`` names a broken rule for are nulled; the
    steady state ``state`` is solved for the others.  Both append the
    warnings of the null rules they apply; ``solved`` is the solved
    points with their residuals.  ``block`` is None when no point has a
    steady state, and else holds those points' stack indices,
    steady-state slices, parameters, drift stack and stability report,
    whose ``stable`` mask is the last null rule.
    """
    # k indexes the stack and j the steady state's slices (the valid
    # points); ``live`` and ``good`` are the drift-stage points in each
    valid = np.flatnonzero([e is None for e in invalid])
    for k, e in enumerate(invalid):
        if e is not None:
            warnings[k].append(f"invalid parameters at this point: {e}")
    state = solve_steady_states(
        params if valid.size == len(params) else params.take(valid))
    solved = np.array([e is None for e in state.errors], dtype=bool)
    for j, e in enumerate(state.errors):
        if e is not None:
            warnings[valid[j]].append(f"steady state singular: {e}")
    residual = state.residual
    for j in np.flatnonzero(solved & ~state.converged):
        # 0 iterations marks closed slices, converged or not: here, repelled
        reason = (": no real mean-field root attracts the damped iteration"
                  if state.iterations_used[j] == 0 else "")
        warnings[valid[j]].append(f"steady state did not converge{reason} "
                                  f"(residual {residual[j]:.3e})")
    good = np.flatnonzero(solved & state.converged)
    # an overflowed drive in direct_g mode: the amplitudes do not enter
    # the fluctuations, so the measures stand
    for j in good[~np.isfinite(residual[good])]:
        warnings[valid[j]].append("steady state residual not finite "
                                  f"(residual {residual[j]:.3e})")
    solved_points = (valid[solved], residual[solved])
    if not good.size:
        return state, solved_points, None
    live = valid[good]
    sub = params if live.size == len(params) else params.take(live)
    # the effective coupling: prescribed in direct_g mode,
    # |i*sqrt(2)*g_mb*<m>| in microscopic mode
    if params.coupling_mode == "microscopic":
        g_eff = np.abs(effective_coupling(sub.g_mb, state.m_avg[good]))
    else:
        g_eff = sub.G_mb
    A = dynamics.drift_matrices(sub, state.delta_eff[good], g_eff)
    return state, solved_points, (live, good, sub, A,
                                  dynamics.stability(A, sub.kappa_1))


def _covariances(A: np.ndarray, D: np.ndarray, eig, points, warnings):
    """The Lyapunov solutions of ``A`` and ``D`` in the gate's eigenbasis
    ``eig``, their residuals and the mask of those that stand, finite with
    a residual below ``RESIDUAL_MAX``; each that falls warns ``points[j]``."""
    V, residual = lyapunov.solve_lyapunov(A, D, eig=eig)
    finite = np.isfinite(V).all(axis=(1, 2))
    stands = finite & (residual < lyapunov.RESIDUAL_MAX)
    for j in np.flatnonzero(~stands):
        warnings[points[j]].append(
            f"Lyapunov residual not below {lyapunov.RESIDUAL_MAX:g} "
            f"(residual {residual[j]:.3e})" if finite[j] else
            "singular Lyapunov system: no finite solution")
    return V, residual, stands


def _evaluate_block(table: SweepTable, state, live, good, sub, A, report,
                    with_amplitudes: bool) -> None:
    """The stages after the gate on its block; fills the rows ``live``
    of ``table``."""
    warnings = table.warnings
    D, d_warnings = dynamics.diffusion_matrices(sub)
    for j, w in d_warnings.items():
        warnings[live[j]].append(w)
    for k in live[report.indeterminate]:
        warnings[k].append("stability indeterminate: eigensolver failed")
    decided = ~report.indeterminate
    _put(table, "margin", live[decided], report.margin[decided])

    stable = np.flatnonzero(report.stable)
    V, residual, stands = _covariances(A[stable], D[stable], (
        report.eigenvalues[stable], report.eigenvectors[stable]),
        live[stable], warnings)
    rows = stable[stands]
    V, residual = V[stands], residual[stands]
    # a solution that is no quantum covariance, where every mode rate of
    # the noise is non-negative (as validate reads it), is nulled the same
    physicality = lyapunov.physicality_min_eig(V)
    unphysical = ((physicality < lyapunov.PHYSICALITY_MIN)
                  & (D[rows] >= 0).all(axis=(1, 2)))
    for j in np.flatnonzero(unphysical):
        warnings[live[rows[j]]].append(
            f"unphysical covariance (min eigenvalue {physicality[j]:.3e})")
    V, residual, physicality, rows = (
        x[~unphysical] for x in (V, residual, physicality, rows))
    points = live[rows]
    table.stable[points] = True
    if with_amplitudes:
        shown = decided & ~report.stable
        shown[rows] = True
        k, j = live[shown], good[shown]
        for name, z in zip(AMPLITUDE_COLUMNS,
                           (state.a1_avg, state.a2_avg, state.m_avg)):
            _put(table, name, k, [abs(v) for v in z[j].tolist()])
        _put(table, "q_avg", k, state.q_avg[j])
    if not rows.size:
        return

    _put(table, "lyap_residual", points, residual)
    _put(table, "physicality", points, physicality)
    by_pair: dict[tuple[str, str], list[str]] = {}
    for col in table.columns:
        by_pair.setdefault(_PAIR_OF[col][0], []).append(col)
    if not by_pair:
        return
    # one pass over every requested pair: slice p*n + i is point i of pair p
    n = len(points)
    found = measures.pair_measures(np.concatenate(
        [measures.reduce_pair(V, pair) for pair in by_pair]))
    for p, (pair, cols) in enumerate(by_pair.items()):
        at = slice(p * n, (p + 1) * n)
        # cols[0] is the pair's E column: its symplectic screen decides
        # whether the reduced state is physical enough to report at all
        e_values, e_errors = (x[at] for x in found.log_negativity)
        physical = ~np.isnan(e_values)
        for i in np.flatnonzero(~physical):
            warnings[points[i]].append(f"pair {pair[0]}-{pair[1]}: "
                                       f"{e_errors[i]}")
        _put(table, cols[0], points[physical], e_values[physical])
        for col in cols[1:]:
            st_values, st_errors = (x[at] for x in found[_PAIR_OF[col][1]])
            _put(table, col, points[physical], st_values[physical])
            for i in np.flatnonzero(physical & np.isnan(st_values)):
                warnings[points[i]].append(f"{col}: {st_errors[i]}")


def evaluate_point(params: PhysicalParams, *,
                   quantities=("all",)) -> SweepRecord:
    """Run the full pipeline for one parameter point: the one-point
    stack of the kernel that sweeps run, which skips the validity rules
    that ``params`` passed when it was built.

    Solver failures are folded into the record (nulled measures plus a
    warning string); this function does not raise for per-point physics
    problems, so sweeps always complete.  The point's drift and
    diffusion matrices come from :func:`point_matrices`.
    """
    return _evaluate_chunk(ParamStack.broadcast(params, 1), [None],
                           np.empty((1, 0)), quantities)[0]


def stack_params(spec: SweepSpec, values: np.ndarray) -> ParamStack:
    """Parameter stack of the grid points ``values`` (N, n_axes): the
    axis values, then the links in order, applied to the base."""
    base = spec.base
    changes = {}
    for axis, column in zip(spec.axes, values.T):
        if axis.name == "eta":
            changes["gain_g"] = base.kappa_2 - column * base.kappa_1
        else:
            changes[axis.name] = column
    for target, source, factor in spec.links:
        changes[target] = factor * changes.get(source, getattr(base, source))
    return ParamStack.broadcast(base, len(values), **changes)


def grid_values(spec: SweepSpec):
    """Row-major list of axis value tuples."""
    return list(itertools.product(*(ax.values().tolist() for ax in spec.axes)))


def _evaluate_points(spec: SweepSpec, values: np.ndarray) -> SweepTable:
    """Table of the grid points ``values`` (N, n_axes), one part of a
    grid, validated and evaluated as one stack."""
    params = stack_params(spec, values)
    return _evaluate_chunk(params, params.errors(), values, spec.quantities)


def run_sweep(spec: SweepSpec, *, jobs: int = 1) -> SweepTable:
    """Evaluate the grid; a table in deterministic row-major order.

    The grid is cut into contiguous parts of ``CHUNK_POINTS`` points,
    each evaluated as one stack by :func:`_evaluate_points`, and their
    tables are joined.  A serial run maps the parts in process; with
    ``jobs > 1`` they go to ``jobs`` worker processes, or one per part
    if there are fewer.  A grid of one part runs serially, as one
    worker would take all of it.  Each point is a pure function of its
    parameters, so ``jobs`` changes no output; below 1 it is a
    ValueError, as ``--jobs`` is a usage error.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    values = np.array(grid_values(spec), dtype=float)
    parts = np.split(values, range(CHUNK_POINTS, len(values), CHUNK_POINTS))
    evaluate = partial(_evaluate_points, spec)
    if jobs <= 1 or len(parts) == 1:
        return SweepTable.concat(list(map(evaluate, parts)))
    # imported where a pool runs: with multiprocessing, it makes up about
    # a third of the package's import time
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(parts))) as pool:
        return SweepTable.concat(list(pool.map(evaluate, parts)))


# the noise matrices of a unit rate on each of the four modes, read-only
_UNIT_NOISES = dynamics.noise_matrices(np.eye(4))
_UNIT_NOISES.flags.writeable = False


def _point_block(params: PhysicalParams):
    """The block of :func:`_gate` on the one-point stack of ``params``,
    or None without a steady state."""
    return _gate(ParamStack.broadcast(params, 1), [None], [[]])[2]


def point_matrices(params: PhysicalParams):
    """The drift and diffusion matrices ``(A, D)``, each (8, 8), that the
    kernel builds at ``params``; None without a steady state."""
    if block := _point_block(params):
        _, _, sub, A, _ = block
        return A[0], dynamics.diffusion_matrices(sub)[0][0]
    return None


def _unit_noise_solutions(params: PhysicalParams) -> np.ndarray | None:
    """The solutions V_k of A V + V A^T = -D_k at ``params``, D_k the
    noise of a unit rate on mode k, as a stack (4, 8, 8); None where the
    kernel's gate nulls the point or one of them falls (:func:`_covariances`).

    Temperature enters only the mode rates w_k(T) of the noise: the
    steady state, the drift matrix A and the stability verdict hold at
    every temperature, and the Lyapunov equation is linear in the noise,
    so the covariance at T is sum_k w_k(T) V_k.
    """
    block = _point_block(params)
    if block is None or not block[-1].stable[0]:
        return None
    *_, A, report = block
    V, _, stands = _covariances(A, _UNIT_NOISES, (
        report.eigenvalues, report.eigenvectors), (0,) * 4, [[]])
    return V if stands.all() else None


def _superposed_log_negativity(params: PhysicalParams, basis: np.ndarray,
                               temperatures) -> np.ndarray:
    """A pair's E_N at each temperature from its reduced unit-noise
    solutions ``basis`` (4, 4, 4), NaN where a screen fails.  Exact for
    any mode rates, negative ones included."""
    w = dynamics.mode_noises(params, temperatures)[:, :, None, None]
    return measures.log_negativity(w[:, 0] * basis[0] + w[:, 1] * basis[1]
                                   + w[:, 2] * basis[2]
                                   + w[:, 3] * basis[3])[0]


def find_critical_temperature(params: PhysicalParams, pair: tuple[str, str]
                              ) -> tuple[float, tuple[str, ...]]:
    """Largest temperature at which the pair, in either order, stays
    entangled, its E_N above ``TC_TOL_E``.

    A coarse scan of ``TC_COARSE_POINTS`` temperatures over [0,
    ``TC_T_MAX``] checks the monotonic-decrease precondition and
    brackets the first zero crossing, which is then bisected to
    ``TC_TOL_T`` (1 mK).  The bracket is halved, every part at once,
    until each part is within ``TC_TOL_T``; the midpoints of that tree,
    63 at the defaults, are evaluated as one stack and then descended,
    so the result is the one sequential bisection gives.  Both stacks
    share the unit-noise solutions of the point
    (:func:`_unit_noise_solutions`), and a point without them, which the
    kernel's gate or its Lyapunov rules null, has E_N = 0 at every
    temperature; the gate skips the validity rules, which ``params``
    passed when it was built.  The kernel's physicality rule is not
    applied: a unit solution is no covariance, and the search forms only
    the pair's blocks of their weighted sums, never a whole covariance
    whose spectrum the rule could read.  Re-entrant entanglement on the
    coarse scan gives a ``non-monotonic`` warning and the first crossing
    is returned.
    Raises ValueError, before any evaluation, if the pair in neither
    order is one of ``measures.PAIRS``; and if the pair is not entangled
    at T = 0.
    """
    pair = tuple(pair)
    # E_N does not depend on the order of the pair
    if pair[::-1] in measures.PAIRS:
        pair = pair[::-1]
    elif pair not in measures.PAIRS:
        raise ValueError(f"unknown mode pair {pair!r}")
    column = "E_%s%s" % pair
    t_max, tol_t, tol_e = TC_T_MAX, TC_TOL_T, TC_TOL_E
    ts = np.linspace(0.0, t_max, TC_COARSE_POINTS)

    solutions = _unit_noise_solutions(params)
    basis = None if solutions is None else measures.reduce_pair(solutions,
                                                                pair)

    def entanglement(temperatures) -> list[float]:
        """The pair's E_N at each temperature, 0 where a screen fails."""
        values = _superposed_log_negativity(params, basis, temperatures)
        return np.where(np.isnan(values), 0.0, values).tolist()

    # a point without unit-noise solutions is entangled at no temperature
    es = [0.0] if basis is None else entanglement(ts)
    if es[0] <= tol_e:
        raise ValueError(f"{column} is not positive at T = 0; "
                         "critical temperature undefined")

    warnings: list[str] = []
    crossing = next((i for i, e in enumerate(es) if e <= tol_e), None)
    if crossing is None:
        warnings.append(f"still entangled at t_max = {t_max} K")
        return t_max, tuple(warnings)
    if any(e > tol_e for e in es[crossing:]):
        warnings.append("non-monotonic: re-entrant entanglement on the "
                        "coarse scan; returning the first zero crossing")
    rises = [es[i + 1] - es[i] for i in range(crossing - 1)]
    if rises and max(rises) > 1e-9 * max(1.0, max(es)):
        warnings.append("non-monotonic: entanglement increases with "
                        "temperature on the coarse scan")

    lo, hi = float(ts[crossing - 1]), float(ts[crossing])
    # the bracket's halving tree, by the bisection's own midpoint formula
    # down to parts within tol_t, where the descent stops
    grid = [lo, hi]
    while any(b - a > tol_t for a, b in zip(grid, grid[1:])):
        grid = [t for a, b in zip(grid, grid[1:])
                for t in (a, 0.5 * (a + b))] + [hi]
    found = entanglement(grid[1:-1])
    i, j = 0, len(grid) - 1
    while hi - lo > tol_t:
        k = (i + j) // 2
        if found[k - 1] > tol_e:
            i, lo = k, grid[k]
        else:
            j, hi = k, grid[k]
    return 0.5 * (lo + hi), tuple(warnings)


# ---------------------------------------------------------------------------
# figure presets

PRESET_NAMES = ("fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4a",
                "fig4b", "fig4c", "fig5a", "fig5b", "fig6", "fig7a",
                "fig7b")

_GRID = 201


def figure_preset(name: str) -> SweepSpec:
    """Sweep specification reproducing one of the reference figures.

    Axis ranges and fixed parameters follow the figure captions; grids
    default to 201 points per axis (401 for the fig4a coupling sweep).
    """
    base = reference_baseline()
    wb = base.omega_b
    k1 = base.kappa_1
    d1_axis = SweepAxis("Delta_1", -2.0 * wb, 0.0, _GRID)
    dm_axis = SweepAxis("Delta_m", 0.0, 2.0 * wb, _GRID)
    eta_axis = SweepAxis("eta", -1.0, 1.0, _GRID)
    t_axis = SweepAxis("temperature_T", 0.0, 0.3, _GRID)
    link_equal = (("Delta_2", "Delta_1", 1.0),)
    ent_quads = ("E_a1b", "E_a2b", "E_a1m", "E_a2m")

    if name == "fig2a":
        return SweepSpec(base.with_(Delta_m=0.9 * wb), (d1_axis, eta_axis),
                         quantities=("E_a2m",), links=link_equal)
    if name == "fig2b":
        return SweepSpec(base, (dm_axis, eta_axis), quantities=("E_a2m",))
    if name == "fig2c":
        return SweepSpec(base, (t_axis, eta_axis), quantities=("E_a2m",))
    if name == "fig2d":
        return SweepSpec(base, (t_axis,), quantities=("E_a1m", "E_a2m"))
    if name == "fig3":
        return SweepSpec(base, (d1_axis, dm_axis),
                         quantities=("st_a2_to_m", "st_m_to_a2"),
                         links=link_equal)
    if name == "fig4a":
        return SweepSpec(base, (SweepAxis("J", 0.0, 4.0 * k1, 401),),
                         quantities=ent_quads)
    if name == "fig4b":
        return SweepSpec(base, (SweepAxis("g_ma", 0.0, 5.0 * k1, _GRID),),
                         quantities=ent_quads)
    if name == "fig4c":
        return SweepSpec(base, (SweepAxis("G_mb", 0.0, 6.4 * k1, _GRID),),
                         quantities=ent_quads)
    if name == "fig5a":
        return SweepSpec(base, (SweepAxis("J", 0.0, 4.0 * k1, _GRID),),
                         quantities=ST_COLUMNS)
    if name == "fig5b":
        return SweepSpec(base.with_(Delta_1=0.06 * wb, Delta_2=-0.06 * wb,
                                    Delta_m=0.375 * wb),
                         (SweepAxis("J", 0.0, 4.0 * k1, _GRID),),
                         quantities=ST_COLUMNS,
                         links=(("Delta_2", "Delta_1", -1.0),))
    if name == "fig6":
        return SweepSpec(base, (d1_axis, dm_axis),
                         quantities=("E_a1m", "E_a2m", "E_a1a2"),
                         links=link_equal)
    if name == "fig7a":
        return SweepSpec(base.with_(Delta_1=-0.96 * wb, Delta_2=-0.96 * wb),
                         (dm_axis,),
                         quantities=("st_a2_to_m", "st_m_to_a2",
                                     "st_a1_to_a2", "st_a2_to_a1"))
    if name == "fig7b":
        return SweepSpec(base.with_(Delta_1=-0.13 * wb, Delta_2=-0.13 * wb),
                         (dm_axis,),
                         quantities=("st_a2_to_m", "st_m_to_a2",
                                     "st_a1_to_a2", "st_a2_to_a1"))
    raise ValueError(f"unknown preset {name!r}; expected one of "
                     f"{', '.join(PRESET_NAMES)}")


# ---------------------------------------------------------------------------
# output writers

def _needs_quoting(text: str) -> bool:
    """Whether the csv module may quote ``text``: whether it holds the
    delimiter, the quote character or a line break."""
    return any(map(text.__contains__, ',"\r\n'))


def write_csv(records, spec: SweepSpec, stream) -> None:
    """Lossless CSV: every column named, 17 significant digits, nulls
    as empty fields.

    Formats the table's numbers as one block, each distinct bit pattern
    once, so that -0.0 keeps its sign; the measure columns that were not
    requested are constant empty fields of the row template."""
    table = SweepTable.of(records, spec)
    _, with_amplitudes = normalize_quantities(spec.quantities)
    header = (list(spec.axis_names()) + ["stable"] + list(MEASURE_COLUMNS)
              + list(DIAGNOSTIC_COLUMNS)
              + list(AMPLITUDE_COLUMNS if with_amplitudes else ())
              + ["warnings"])
    n_axes = len(spec.axes)
    names = header[n_axes + 1:-1]
    template = ",".join(["%s"] * (n_axes + 1) + [
        "%s" if c in table.values else "" for c in names] + ["%s"])
    block = np.column_stack([table.axis_values] + [
        table.values[c] for c in names if c in table.values])
    distinct, index = np.unique(block.view(np.int64), return_inverse=True)
    values = distinct.view(float)
    # one format call for all of them, faster than a call per value
    text = (",".join(["%.17g"] * len(values))
            % tuple(values.tolist())).split(",")
    for i in np.flatnonzero(np.isnan(values)).tolist():
        text[i] = ""
    cells = list(map(text.__getitem__, index.reshape(-1).tolist()))
    k = block.shape[1]
    columns = [cells[j::k] for j in range(k)]
    columns.insert(n_axes, ["true" if s else "false"
                            for s in table.stable.tolist()])
    # the csv module quotes the warnings texts that may need it, each
    # once: its writer returns what the file's write does, here the line
    warnings = list(map(";".join, table.warnings))
    if _needs_quoting("".join(warnings)):
        row = csv.writer(SimpleNamespace(write=str),
                         lineterminator="\n").writerow
        quoted = {w: row(("", w))[1:-1]
                  for w in set(filter(_needs_quoting, warnings))}
        warnings = [quoted.get(w, w) for w in warnings]
    columns.append(warnings)
    stream.write("\n".join([",".join(header)]
                           + list(map(template.__mod__, zip(*columns))))
                 + "\n")


def record_to_dict(rec: SweepRecord, axis_names) -> dict:
    """JSON-ready object of one record; the amplitudes appear only when
    the record carries them."""
    obj = {
        "axes": dict(zip(axis_names, rec.axis_values)),
        "stable": rec.stable,
        "measures": rec.measures,
        "margin": rec.margin,
        "physicality": rec.physicality,
        "residual": rec.residual,
        "lyap_residual": rec.lyap_residual,
        "warnings": list(rec.warnings),
    }
    if rec.amplitudes is not None:
        obj["amplitudes"] = dict(zip(AMPLITUDE_COLUMNS, rec.amplitudes))
    return obj


def write_jsonl(records, spec: SweepSpec, stream) -> None:
    """One strict JSON object per record, keys sorted for determinism."""
    names = spec.axis_names()
    for rec in records:
        stream.write(json.dumps(record_to_dict(rec, names), sort_keys=True,
                                allow_nan=False) + "\n")


def render_records(records, spec: SweepSpec) -> str:
    """Render records (a :class:`SweepTable` or a sequence of rows) to a
    CSV or JSON-lines string per the spec format."""
    buf = StringIO()
    if spec.output_format == "jsonl":
        write_jsonl(records, spec, buf)
    else:
        write_csv(records, spec, buf)
    return buf.getvalue()
