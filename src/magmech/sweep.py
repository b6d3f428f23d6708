"""Parameter-sweep engine: the stacked pipeline kernel, grid sweeps,
critical temperature search and the named figure presets.

Every grid point is an independent pure computation (steady state ->
drift/diffusion -> stability -> Lyapunov -> measures).  A stack of
points goes in as a :class:`~magmech.params.ParamStack` and comes out as
a :class:`SweepTable` of columns, one point being a stack of one.  A
grid runs as parts of at most ``CHUNK_POINTS`` points, one stack each,
on a thread per usable CPU or in worker processes, and their tables are
joined.
Tables keep row-major axis order, and unstable points carry explicit
nulls, never zeros: NaN in a table, empty in CSV, ``null`` in JSON.
"""

from __future__ import annotations

import contextvars
import csv
import itertools
import json
import math
import os
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

# The outcome bits of a point, in the order of its warnings: the kernel's
# null rules in stage order, then one per measure column whose screen
# failed, in _PAIR_OF order.  OUTCOMES names each, as its warning and the
# standard-error report do.
(INVALID, SINGULAR, UNCONVERGED, NOT_FINITE, NEGATIVE_DIFFUSION,
 INDETERMINATE, LYAPUNOV_RESIDUAL, SINGULAR_LYAPUNOV, UNPHYSICAL) = range(9)
_COLUMN_BIT = {col: bit for bit, col in enumerate(_PAIR_OF, UNPHYSICAL + 1)}
OUTCOMES = ("invalid parameters at this point", "steady state singular",
            "steady state did not converge",
            "steady state residual not finite", "negative diffusion",
            "stability indeterminate",
            f"Lyapunov residual not below {lyapunov.RESIDUAL_MAX:g}",
            "singular Lyapunov system", "unphysical covariance") + tuple(
    col if place else "pair %s-%s" % pair
    for col, (pair, place) in _PAIR_OF.items())

AXIS_NAMES = set(NUMERIC_FIELDS) | {"eta"}

# Points per part of a grid: the most that one kernel stack holds.  Each
# stage pays a fixed Python and NumPy cost per call: a serial fig2a runs
# about 1.3x faster in parts of 256 than of 64, and no faster in parts
# of 1024, which peak 7 MiB higher.  A serial run shares a smaller grid
# out among its threads, in parts of no fewer than CHUNK_POINTS // 4.
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
        for target, source, factor in self.links:
            if not math.isfinite(factor):
                raise ValueError(f"link {target}:{source} factor {factor!r} "
                                 "is not finite")
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
    warnings raised along the way, one per bit of ``outcome``
    (``OUTCOMES``), which the JSON leaves out.
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
    outcome: int = 0


@dataclass(eq=False)
class SweepTable(Sequence):
    """The records of a run of points as columns, in row-major order;
    indexing gives :class:`SweepRecord` rows, built on access.

    ``values`` maps each of ``DIAGNOSTIC_COLUMNS``, each requested
    measure and any requested ``AMPLITUDE_COLUMNS`` to an (N,) float
    array.  Each entry is finite, or NaN where it is null: a value that
    is not finite, such as the residual of an overflowed drive, is null.
    ``outcome`` holds each point's outcome bits (``OUTCOMES``), and
    ``warnings`` their texts.
    """

    axis_values: np.ndarray
    stable: np.ndarray
    values: dict[str, np.ndarray]
    warnings: list[list[str]]
    columns: tuple[str, ...]
    outcome: np.ndarray

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
                           tuple(self.warnings[k]), int(self.outcome[k]))

    @classmethod
    def concat(cls, parts) -> "SweepTable":
        """The tables ``parts``, one after the other."""
        def joined(get):
            return np.concatenate([get(p) for p in parts])

        names = parts[0].values
        return cls(joined(lambda p: p.axis_values),
                   joined(lambda p: p.stable),
                   {c: joined(lambda p: p.values[c]) for c in names},
                   [w for p in parts for w in p.warnings], parts[0].columns,
                   joined(lambda p: p.outcome))

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
                   [list(r.warnings) for r in rows], columns,
                   np.array([r.outcome for r in rows], dtype=np.int64))


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
    out = _Outcomes(n)
    table = SweepTable(np.asarray(axis_values, dtype=float),
                       np.zeros(n, dtype=bool),
                       {c: np.full(n, np.nan) for c in names}, [], columns,
                       out.bits)
    state, solved, block = _gate(params, invalid, out)
    _put(table, "residual", *solved)
    if block is not None:
        _evaluate_block(table, out, state, *block, with_amplitudes)
    table.warnings = _warning_texts(out)
    return table


def _put(table: SweepTable, name: str, points, values) -> None:
    """Store ``values`` in rows ``points`` of a column, non-finite as NaN."""
    table.values[name][points] = np.where(np.isfinite(values), values, np.nan)


class _Outcomes:
    """A stack's outcome bits, and per bit set the note its warnings
    quote: its points, and for each a number (or the broken rule of an
    invalid or singular point) and a variant (the place from 0 of the
    screen that failed, or 1 where no mean-field root attracts)."""

    def __init__(self, n: int):
        self.bits, self.notes = np.zeros(n, dtype=np.int64), []

    def set(self, bit: int, points, number=(), variant=()) -> None:
        """Set ``bit`` on the stack indices ``points``; a note without
        numbers or variants quotes none and takes the first variant."""
        if len(points):
            self.bits[points] |= 1 << bit
            self.notes.append((bit, points.tolist(), np.asarray(
                number).tolist(), np.asarray(variant).tolist()))


def _warning_texts(out: _Outcomes) -> list[list[str]]:
    """Every warning is worded here: per point of ``out``, a text per
    outcome bit in bit order, the bit's name and then what its note
    quotes.  Only the points with a bit set are visited."""
    texts = [[] for _ in range(len(out.bits))]
    if not out.notes:
        return texts
    residual = " (residual {x:.3e})"
    ends = [(": {x}",), (": {x}",),
            (residual, ": no real mean-field root attracts the damped "
                       "iteration" + residual), (residual,),
            (": cavity-2 noise entry {x:.6g} < 0 (as_printed with net gain)",),
            (": eigensolver failed",), (residual,), (": no finite solution",),
            (" (min eigenvalue {x:.3e})",)]
    ends += [(": non-positive conditioning block determinant {x:.3e}",
              ": non-positive covariance determinant {x:.3e}") if place else
             (": negative symplectic discriminant {x:.3e}",
              ": negative squared symplectic eigenvalue {x:.3e}",
              ": vanishing symplectic eigenvalue")
             for _, place in _PAIR_OF.values()]
    for bit, points, number, variant in sorted(out.notes, key=lambda n: n[0]):
        for k, x, v in itertools.zip_longest(points, number, variant,
                                             fillvalue=0):
            texts[k].append(OUTCOMES[bit] + ends[bit][v].format(x=x))
    return texts


def _gate(params: ParamStack, invalid: list, out: _Outcomes):
    """The kernel's front stages: ``(state, solved, block)``.  The
    points that ``invalid`` names a broken rule for are nulled; the
    steady state ``state`` is solved for the others.  Each stage sets the
    bits of the null rules it applies in ``out``; ``solved`` is the
    solved points with their residuals.  ``block`` is None when no point
    has a steady state, and else holds those points' stack indices,
    steady-state slices, parameters, drift stack and stability report,
    whose ``stable`` mask is the last null rule.
    """
    # k indexes the stack and j the steady state's slices (the valid
    # points); ``live`` and ``good`` are the drift-stage points in each
    ok = np.array([e is None for e in invalid], dtype=bool)
    valid, k = np.flatnonzero(ok), np.flatnonzero(~ok)
    out.set(INVALID, k, [invalid[i] for i in k.tolist()])
    state = solve_steady_states(
        params if valid.size == len(params) else params.take(valid))
    solved = np.array([e is None for e in state.errors], dtype=bool)
    j = np.flatnonzero(~solved)
    out.set(SINGULAR, valid[j], [state.errors[i] for i in j.tolist()])
    residual = state.residual
    j = np.flatnonzero(solved & ~state.converged)
    # 0 iterations marks closed slices, converged or not: here, repelled
    out.set(UNCONVERGED, valid[j], residual[j], state.iterations_used[j] == 0)
    good = np.flatnonzero(solved & state.converged)
    # an overflowed drive in direct_g mode: the amplitudes do not enter
    # the fluctuations, so the measures stand
    j = good[~np.isfinite(residual[good])]
    out.set(NOT_FINITE, valid[j], residual[j])
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
    report = dynamics.stability(A, sub.kappa_1)
    out.set(INDETERMINATE, live[report.indeterminate])
    return state, solved_points, (live, good, sub, A, report)


def _covariances(A: np.ndarray, D: np.ndarray, eig, out: _Outcomes, points):
    """The Lyapunov solutions of ``A`` and ``D`` in the gate's eigenbasis
    ``eig``, their residuals and the mask of those that stand, finite with
    a residual below ``RESIDUAL_MAX``; each that falls sets its bit on
    ``points[j]`` in ``out``."""
    V, residual = lyapunov.solve_lyapunov(A, D, eig=eig)
    finite = np.isfinite(V).all(axis=(1, 2))
    stands = finite & (residual < lyapunov.RESIDUAL_MAX)
    missed = finite & ~stands
    out.set(LYAPUNOV_RESIDUAL, points[missed], residual[missed])
    out.set(SINGULAR_LYAPUNOV, points[~finite])
    return V, residual, stands


def _evaluate_block(table: SweepTable, out: _Outcomes, state, live, good,
                    sub, A, report, with_amplitudes: bool) -> None:
    """The stages after the gate on its block; fills the rows ``live``
    of ``table`` and sets their bits in ``out``."""
    D = dynamics.diffusion_matrices(sub)
    noisy = np.flatnonzero(D[:, 2, 2] < 0)
    out.set(NEGATIVE_DIFFUSION, live[noisy], D[noisy, 2, 2])
    decided = ~report.indeterminate
    _put(table, "margin", live[decided], report.margin[decided])

    stable = np.flatnonzero(report.stable)
    V, residual, stands = _covariances(A[stable], D[stable], (
        report.eigenvalues[stable], report.eigenvectors[stable]), out,
        live[stable])
    rows = stable[stands]
    V, residual = V[stands], residual[stands]
    # a solution that is no quantum covariance, where every mode rate of
    # the noise is non-negative (as validate reads it), is nulled the same
    physicality = lyapunov.physicality_min_eig(V)
    unphysical = ((physicality < lyapunov.PHYSICALITY_MIN)
                  & (D[rows] >= 0).all(axis=(1, 2)))
    out.set(UNPHYSICAL, live[rows[unphysical]], physicality[unphysical])
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
    for p, cols in enumerate(by_pair.values()):
        at = slice(p * n, (p + 1) * n)
        # cols[0] is the pair's E column: its symplectic screen decides
        # whether the reduced state is physical enough to report at all
        physical = found.log_negativity[1][at] == 0
        for col in cols:
            values, screen, quoted = (x[at] for x in found[_PAIR_OF[col][1]])
            _put(table, col, points[physical], values[physical])
            failed = ~physical if col == cols[0] else physical & (screen > 0)
            out.set(_COLUMN_BIT[col], points[failed], quoted[failed],
                    screen[failed] - 1)


def evaluate_point(params: PhysicalParams, *,
                   quantities=("all",)) -> SweepRecord:
    """Run the full pipeline for one parameter point: the one-point
    stack of the kernel that sweeps run, which skips the validity rules
    that ``params`` passed when it was built.

    Solver failures are folded into the record (nulled measures, an
    outcome bit and its warning); this function does not raise for physics
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

    The grid is cut into contiguous parts, each evaluated as one stack
    by :func:`_evaluate_points`, and their tables are joined in grid
    order.  A serial run evaluates them on a thread per usable CPU
    (:func:`_evaluate_threaded`); with ``jobs > 1`` a grid of more than
    ``CHUNK_POINTS`` points goes to ``jobs`` worker processes, or one
    per part if there are fewer, in parts of ``CHUNK_POINTS``.  Each
    point is a pure function of its parameters, so neither the parts
    nor ``jobs`` change any output; ``jobs`` below 1 is a ValueError, as
    ``--jobs`` is a usage error.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    values = np.array(grid_values(spec), dtype=float)
    evaluate = partial(_evaluate_points, spec)
    if jobs == 1 or len(values) <= CHUNK_POINTS:
        return _evaluate_threaded(evaluate, values)
    parts = np.split(values, range(CHUNK_POINTS, len(values), CHUNK_POINTS))
    # imported where a pool runs: with multiprocessing, it makes up about
    # a third of the package's import time
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(parts))) as pool:
        return SweepTable.concat(list(pool.map(evaluate, parts)))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_thread_pool = None  # ((pid, threads), executor) of the last threaded run


def _worker_threads(threads: int):
    """The persistent pool of ``threads - 1`` worker threads."""
    global _thread_pool
    # a forked child inherits the pool without its threads: make it anew,
    # as when the usable CPUs change.  The idle threads of a pool that is
    # no longer referenced exit.
    key = (os.getpid(), threads)
    if _thread_pool is None or _thread_pool[0] != key:
        # imported where threads start, as the process pool is
        from concurrent.futures import ThreadPoolExecutor
        _thread_pool = (key, ThreadPoolExecutor(threads - 1))
    return _thread_pool[1]


def _evaluate_threaded(evaluate, values: np.ndarray) -> SweepTable:
    """The table of ``evaluate`` over the grid points ``values`` in
    parts, shared out among a thread per usable CPU.

    The stacked LAPACK calls that take most of a part's time release the
    GIL, so the threads overlap.  Parts hold ``ceil(N / threads)``
    points, within ``CHUNK_POINTS // 4`` and ``CHUNK_POINTS``; the
    calling thread evaluates parts ``0::threads`` and the worker threads
    the other shares, each in a copy of the caller's context (its
    ``np.errstate``).  A grid of one part is evaluated directly, and on
    one CPU every part is evaluated in the calling thread.
    """
    threads = _usable_cpus()
    size = max(CHUNK_POINTS // 4,
               min(CHUNK_POINTS, math.ceil(len(values) / threads)))
    parts = np.split(values, range(size, len(values), size))
    if len(parts) == 1:
        return evaluate(values)
    shares = min(threads, len(parts))

    def share(t: int) -> list[SweepTable]:
        return [evaluate(part) for part in parts[t::shares]]

    futures = [_worker_threads(threads).submit(
        contextvars.copy_context().run, share, t) for t in range(1, shares)]
    try:
        mine = share(0)
    finally:
        # every share has ended when the call returns or raises
        theirs = [f.result() for f in futures]
    tables = [mine] + theirs
    return SweepTable.concat([tables[k % shares][k // shares]
                              for k in range(len(parts))])


# the noise matrices of a unit rate on each of the four modes, read-only
_UNIT_NOISES = dynamics.noise_matrices(np.eye(4))
_UNIT_NOISES.flags.writeable = False


def _point_block(params: PhysicalParams, out: _Outcomes | None = None):
    """The block of :func:`_gate` on the one-point stack of ``params``,
    or None without a steady state; the gate's bits go to ``out``."""
    return _gate(ParamStack.broadcast(params, 1), [None],
                 out or _Outcomes(1))[2]


def point_matrices(params: PhysicalParams):
    """The drift and diffusion matrices ``(A, D)``, each (8, 8), that the
    kernel builds at ``params``; None without a steady state."""
    if block := _point_block(params):
        _, _, sub, A, _ = block
        return A[0], dynamics.diffusion_matrices(sub)[0]
    return None


def _unit_noise_solutions(params: PhysicalParams, warnings: list[str]
                          ) -> np.ndarray | None:
    """The solutions V_k of A V + V A^T = -D_k at ``params``, D_k the
    noise of a unit rate on mode k, as a stack (4, 8, 8); None where the
    kernel's gate nulls the point or one of them falls
    (:func:`_covariances`).  The gate's warnings go to ``warnings``, and
    where there are no solutions its last entry says why: the gate's
    warning, the margin of an unstable point or the warning of the first
    solution that falls.

    Temperature enters only the mode rates w_k(T) of the noise: the
    steady state, the drift matrix A and the stability verdict hold at
    every temperature, and the Lyapunov equation is linear in the noise,
    so the covariance at T is sum_k w_k(T) V_k.
    """
    out = _Outcomes(1)
    block = _point_block(params, out)
    warnings += _warning_texts(out)[0]
    if block is None or not block[-1].stable[0]:
        if block and not block[-1].indeterminate[0]:
            warnings.append("unstable (margin %.3e rad/s)"
                            % block[-1].margin[0])
        return None
    *_, A, report = block
    fell = _Outcomes(4)
    V, _, stands = _covariances(A, _UNIT_NOISES, (
        report.eigenvalues, report.eigenvectors), fell, np.arange(4))
    if stands.all():
        return V
    warnings.append("a unit-noise solution fails: "
                    + _warning_texts(fell)[np.argmin(stands)][0])
    return None


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
    (:func:`_unit_noise_solutions`), whose gate skips the validity
    rules, which ``params`` passed when it was built.  The kernel's
    physicality rule is not applied: a unit solution is no covariance,
    and the search forms only the pair's blocks of their weighted sums,
    never a whole covariance whose spectrum the rule could read.
    Re-entrant entanglement on the coarse scan gives a ``non-monotonic``
    warning and the first crossing is returned.
    Raises ValueError, before any evaluation, if the pair in neither
    order is one of ``measures.PAIRS``; with the reason that
    :func:`_unit_noise_solutions` gives, if the kernel's gate nulls the
    point or a unit-noise solution falls; and if the pair is not
    entangled at T = 0.
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

    gate: list[str] = []
    solutions = _unit_noise_solutions(params, gate)
    if solutions is None:
        raise ValueError(f"{column} undefined: {gate[-1]}; "
                         "critical temperature undefined")
    basis = measures.reduce_pair(solutions, pair)

    def entanglement(temperatures) -> list[float]:
        """The pair's E_N at each temperature, 0 where a screen fails."""
        values = _superposed_log_negativity(params, basis, temperatures)
        return np.where(np.isnan(values), 0.0, values).tolist()

    es = entanglement(ts)
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
