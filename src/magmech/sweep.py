"""Parameter-sweep engine: the chunked pipeline kernel, grid sweeps,
critical temperature search and the named figure presets.

Every grid point is an independent pure computation (steady state ->
drift/diffusion -> stability -> Lyapunov -> measures).  A chunk of
points goes in as a :class:`~magmech.params.ParamStack` and comes out as
a :class:`SweepTable` of columns, one point being a chunk of one; chunks
may run in parallel.  Tables keep row-major axis order, and unstable
points carry explicit nulls, never zeros.
"""

from __future__ import annotations

import csv
import itertools
import json
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from io import StringIO

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

# Grid points per stacked evaluation.  Larger chunks amortize a little
# more Python overhead per point but raise peak memory.
CHUNK_POINTS = 64

# Bisection levels of the Tc search per stacked evaluation: the
# 2**BISECT_LEVELS - 1 midpoints the next halvings could visit run as
# one chunk.
BISECT_LEVELS = 3


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

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: base point, one or two axes, linked fields.

    ``links`` are (target, source, factor) triples applied after the
    axis values, e.g. ``("Delta_2", "Delta_1", 1.0)`` keeps the two
    cavity detunings equal while ``Delta_1`` is swept.  ``quantities``
    selects the reported measure columns (``"all"`` for every pair);
    requesting a steering direction implies the matching entanglement
    column.  ``"amplitudes"`` adds the steady-state amplitude columns.
    """

    base: PhysicalParams
    axes: tuple[SweepAxis, ...]
    quantities: tuple[str, ...] = ("all",)
    links: tuple[tuple[str, str, float], ...] = ()
    output_format: str = "csv"
    drift_mode: str = "derived"
    epsilon_d: float = 0.0

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep needs one or two axes")
        if self.output_format not in ("csv", "jsonl"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.drift_mode not in dynamics.DRIFT_MODES:
            raise ValueError(f"unknown drift mode {self.drift_mode!r}")
        for target, source, _ in self.links:
            if target not in NUMERIC_FIELDS:
                raise ValueError(f"unknown link target {target!r}")
            if source not in NUMERIC_FIELDS:
                raise ValueError(f"unknown link source {source!r}")
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
    indexing yields :class:`SweepRecord` rows, built on access.

    ``values`` maps each of ``DIAGNOSTIC_COLUMNS``, each requested
    measure and any requested ``AMPLITUDE_COLUMNS`` to an (N,) float
    array, ``null`` to (N,) masks of null entries: a null is not a NaN
    (an overflowed drive has a NaN residual).  ``matrices``, on request,
    holds the drift-stage points and their drift and diffusion stacks.
    """

    axis_values: np.ndarray
    stable: np.ndarray
    values: dict[str, np.ndarray]
    null: dict[str, np.ndarray]
    warnings: list[list[str]]
    columns: tuple[str, ...]
    matrices: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.stable)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        cell = {c: None if self.null[c][k] else float(v[k])
                for c, v in self.values.items()}.get
        # the amplitudes share one null mask
        amplitudes = tuple(map(cell, AMPLITUDE_COLUMNS))
        return SweepRecord(tuple(self.axis_values[k].tolist()),
                           bool(self.stable[k]),
                           {c: cell(c) for c in self.columns},
                           *map(cell, DIAGNOSTIC_COLUMNS),
                           None if amplitudes[0] is None else amplitudes,
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
                   {c: joined(lambda p: p.null[c]) for c in names},
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
                   {c: np.array([np.nan if e is None else e for e in v])
                    for c, v in cells.items()},
                   {c: np.array([e is None for e in v], dtype=bool)
                    for c, v in cells.items()},
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


def _evaluate_chunk(params: ParamStack, axis_values, quantities,
                    drift_mode: str, epsilon_d: float,
                    matrices: bool = False) -> SweepTable:
    """Run the pipeline for a chunk of points as stacked (N, 8, 8) arrays
    and return its table; ``axis_values`` is (N, n_axes).

    Steady state, drift, diffusion, stability, Lyapunov solve and pair
    measures each run once on the chunk's stack and fill their columns.
    Every stacked operation acts slice by slice, so a point's record
    does not depend on the chunk it falls in.
    """
    columns, with_amplitudes = normalize_quantities(quantities)
    n = len(params)
    names = DIAGNOSTIC_COLUMNS + columns + (AMPLITUDE_COLUMNS
                                            if with_amplitudes else ())
    table = SweepTable(np.asarray(axis_values, dtype=float),
                       np.zeros(n, dtype=bool),
                       {c: np.full(n, np.nan) for c in names},
                       {c: np.ones(n, dtype=bool) for c in names},
                       [[] for _ in range(n)], columns)
    warnings = table.warnings

    def put(name, points, values):
        table.values[name][points] = values
        table.null[name][points] = False

    # k indexes the chunk and j the steady state's slices (the valid
    # points); the drift-stage arrays follow ``live`` (``good`` in j)
    invalid = params.errors()
    valid = np.flatnonzero([e is None for e in invalid])
    for k in np.flatnonzero([e is not None for e in invalid]).tolist():
        warnings[k].append(f"invalid parameters at this point: {invalid[k]}")
    state = solve_steady_states(
        params if valid.size == n else params.take(valid), epsilon_d)
    solved = np.array([e is None for e in state.errors], dtype=bool)
    for j in np.flatnonzero(~solved):
        warnings[valid[j]].append(f"steady state singular: {state.errors[j]}")
    residual = state.residual
    put("residual", valid[solved], residual[solved])
    for j in np.flatnonzero(solved & ~state.converged):
        warnings[valid[j]].append("steady state did not converge "
                                  f"(residual {residual[j]:.3e})")
    good = np.flatnonzero(solved & state.converged)
    # an overflowed drive in direct_g mode: the amplitudes do not enter
    # the fluctuations, so the measures stand
    for j in good[~np.isfinite(residual[good])]:
        warnings[valid[j]].append("steady state residual not finite "
                                  f"(residual {residual[j]:.3e})")
    live = valid[good]  # the points that reach the drift stage
    if not live.size:
        return table

    sub = params if live.size == n else params.take(live)
    # the effective coupling: prescribed in direct_g mode,
    # |i*sqrt(2)*g_mb*<m>| in microscopic mode
    if params.coupling_mode == "microscopic":
        g_eff = np.abs(effective_coupling(sub.g_mb, state.m_avg[good]))
    else:
        g_eff = sub.G_mb
    A = dynamics.drift_matrices(sub, state.delta_eff[good], g_eff,
                                mode=drift_mode)
    D, d_warnings = dynamics.diffusion_matrices(sub)
    if matrices:
        table.matrices = (live, A, D)
    report = dynamics.stability(A, sub.kappa_1)
    for k, w in zip(live.tolist(), d_warnings):
        warnings[k].extend(w)
    for k in live[report.indeterminate]:
        warnings[k].append("stability indeterminate: eigensolver failed")
    decided = ~report.indeterminate
    put("margin", live[decided], report.margin[decided])

    stable = np.flatnonzero(report.stable)
    V = lyapunov.solve_lyapunov(A[stable], D[stable],
                                eig=(report.eigenvalues[stable],
                                     report.eigenvectors[stable]))
    finite = np.isfinite(V).all(axis=(1, 2))
    for k in live[stable[~finite]]:
        warnings[k].append("singular Lyapunov system: no finite solution")
    rows = stable[finite]
    points = live[rows]
    table.stable[points] = True
    if with_amplitudes:
        shown = decided & ~report.stable
        shown[rows] = True
        k, j = live[shown], good[shown]
        for name, z in zip(AMPLITUDE_COLUMNS,
                           (state.a1_avg, state.a2_avg, state.m_avg)):
            put(name, k, [abs(v) for v in z[j].tolist()])
        put("q_avg", k, state.q_avg[j])
    if not rows.size:
        return table

    V = V[finite]
    put("lyap_residual", points,
        lyapunov.lyapunov_residual(A[rows], V, D[rows]))
    put("physicality", points, lyapunov.physicality_min_eig(V))
    by_pair: dict[tuple[str, str], list[str]] = {}
    for col in columns:
        by_pair.setdefault(_PAIR_OF[col][0], []).append(col)
    for pair, cols in by_pair.items():
        found = measures.pair_measures(measures.reduce_pair(V, pair))
        # cols[0] is the pair's E column: its symplectic screen decides
        # whether the reduced state is physical enough to report at all
        e_values, e_errors = found.log_negativity
        physical = np.array([e is None for e in e_errors], dtype=bool)
        for i in np.flatnonzero(~physical):
            warnings[points[i]].append(f"pair {pair[0]}-{pair[1]}: "
                                       f"{e_errors[i]}")
        put(cols[0], points[physical], e_values[physical])
        for col in cols[1:]:
            st_values, st_errors = found[_PAIR_OF[col][1]]
            shown = physical & np.array([e is None for e in st_errors],
                                        dtype=bool)
            put(col, points[shown], st_values[shown])
            for i in np.flatnonzero(physical & ~shown):
                warnings[points[i]].append(f"{col}: {st_errors[i]}")
    return table


def evaluate_point(params: PhysicalParams, *,
                   quantities=("all",), drift_mode: str = "derived",
                   epsilon_d: float = 0.0,
                   axis_values: tuple[float, ...] = (),
                   matrices: bool = False):
    """Run the full pipeline for one parameter point: the one-point
    chunk of the kernel that sweeps run.

    Solver failures are folded into the record (nulled measures plus a
    warning string); this function does not raise for per-point physics
    problems, so sweeps always complete.  With ``matrices`` it returns
    ``(record, (A, D))``, or ``(record, None)`` without a steady state.
    """
    table = _evaluate_chunk(ParamStack.broadcast(params, 1), [axis_values],
                            quantities, drift_mode, epsilon_d, matrices)
    dump = table.matrices and (table.matrices[1][0], table.matrices[2][0])
    return (table[0], dump) if matrices else table[0]


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


def build_point_params(spec: SweepSpec,
                       values: tuple[float, ...]) -> PhysicalParams:
    """Apply axis values, then links in order, to the base parameter set;
    raises ValueError for an invalid point."""
    stack = stack_params(spec, np.array([values], dtype=float))
    return replace(spec.base, **{name: float(getattr(stack, name)[0])
                                 for name in NUMERIC_FIELDS})


def grid_values(spec: SweepSpec):
    """Row-major list of axis value tuples."""
    return list(itertools.product(*(ax.values().tolist() for ax in spec.axes)))


def _evaluate_points(spec: SweepSpec, values: np.ndarray) -> SweepTable:
    """Table of a run of grid points, evaluated as one chunk."""
    return _evaluate_chunk(stack_params(spec, values), values,
                           spec.quantities, spec.drift_mode, spec.epsilon_d)


def run_sweep(spec: SweepSpec, *, jobs: int = 1) -> SweepTable:
    """Evaluate the grid; a table in deterministic row-major order.

    The grid is cut into chunks of ``CHUNK_POINTS`` points, each run as
    one stacked evaluation.  With ``jobs > 1`` whole chunks are farmed
    out to worker processes; the result is identical to a serial run
    because every point is a pure function of its parameters.
    """
    values = np.array(grid_values(spec), dtype=float)
    chunks = [values[i:i + CHUNK_POINTS]
              for i in range(0, len(values), CHUNK_POINTS)]
    task = partial(_evaluate_points, spec)
    if jobs <= 1:
        parts = list(map(task, chunks))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(task, chunks))
    return SweepTable.concat(parts)


def find_critical_temperature(params: PhysicalParams,
                              pair: tuple[str, str], *,
                              t_max: float = 2.0, tol_t: float = 1e-3,
                              tol_e: float = 1e-6, coarse_points: int = 41,
                              drift_mode: str = "derived",
                              epsilon_d: float = 0.0
                              ) -> tuple[float, tuple[str, ...]]:
    """Largest temperature at which the pair stays entangled.

    A coarse scan over [0, t_max], evaluated as one chunk, checks the
    monotonic-decrease precondition and brackets the first zero
    crossing, which is then bisected to ``tol_t`` (default 1 mK).  The
    bisection runs ``BISECT_LEVELS`` levels per stacked evaluation: the
    midpoints the next halvings could visit are evaluated as one chunk,
    then descended as one halving each, so the result is the one
    sequential bisection gives.  Re-entrant entanglement on the coarse
    scan yields a ``non-monotonic`` warning and the first crossing is
    returned.  Raises ValueError if the pair is not entangled at T = 0.
    """
    column = "E_%s%s" % pair

    def entanglement(temperatures) -> list[float]:
        """The pair's E_N at each temperature, 0 where unstable or null."""
        n = len(temperatures)
        stack = ParamStack.broadcast(params, n, temperature_T=temperatures)
        invalid = next((e for e in stack.errors() if e is not None), None)
        if invalid is not None:
            raise ValueError(invalid)
        table = _evaluate_chunk(stack, np.empty((n, 0)), (column,),
                                drift_mode, epsilon_d)
        shown = table.stable & ~table.null[column]
        return np.where(shown, table.values[column], 0.0).tolist()

    ts = np.linspace(0.0, t_max, coarse_points)
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
    while hi - lo > tol_t:
        # the bracket's halving tree, built with the bisection's own
        # midpoint formula; a level whose brackets all meet tol_t is
        # never visited
        grid = [lo, hi]
        for _ in range(BISECT_LEVELS):
            if all(b - a <= tol_t for a, b in zip(grid, grid[1:])):
                break
            grid = [t for a, b in zip(grid, grid[1:])
                    for t in (a, 0.5 * (a + b))] + [hi]
        found = entanglement(grid[1:-1])
        i, j = 0, len(grid) - 1
        while j - i > 1 and hi - lo > tol_t:
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

def write_csv(records, spec: SweepSpec, stream) -> None:
    """Lossless CSV: every column named, 17 significant digits, nulls
    as empty fields.

    Formats by column: each distinct axis value once, and a measure
    column that was not requested as one shared empty field."""
    table = SweepTable.of(records, spec)
    _, with_amplitudes = normalize_quantities(spec.quantities)
    header = (list(spec.axis_names()) + ["stable"] + list(MEASURE_COLUMNS)
              + list(DIAGNOSTIC_COLUMNS)
              + list(AMPLITUDE_COLUMNS if with_amplitudes else ())
              + ["warnings"])
    fields = []
    for axis in table.axis_values.T:
        # by bits, so that -0.0 keeps its sign
        distinct, index = np.unique(axis.view(np.int64), return_inverse=True)
        text = ["%.17g" % v for v in distinct.view(float).tolist()]
        fields.append([text[i] for i in index.reshape(-1).tolist()])
    fields.append(["true" if s else "false" for s in table.stable.tolist()])
    blank = [""] * len(table)
    for name in header[len(spec.axes) + 1:-1]:
        values, null = table.values.get(name), table.null.get(name)
        fields.append(blank if values is None else
                      ["" if n else "%.17g" % v
                       for v, n in zip(values.tolist(), null.tolist())])
    fields.append([";".join(w) for w in table.warnings])
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*fields))


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
    """One JSON object per record, keys sorted for byte determinism."""
    names = spec.axis_names()
    for rec in records:
        stream.write(json.dumps(record_to_dict(rec, names), sort_keys=True)
                     + "\n")


def render_records(records, spec: SweepSpec) -> str:
    """Render records (a :class:`SweepTable` or a sequence of rows) to a
    CSV or JSON-lines string per the spec format."""
    buf = StringIO()
    if spec.output_format == "jsonl":
        write_jsonl(records, spec, buf)
    else:
        write_csv(records, spec, buf)
    return buf.getvalue()
