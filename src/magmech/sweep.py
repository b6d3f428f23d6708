"""Parameter-sweep engine: the chunked pipeline kernel, grid sweeps,
critical temperature search and the named figure presets.

Every grid point is an independent pure computation (steady state ->
drift/diffusion -> stability -> Lyapunov -> measures).  Points are
evaluated in chunks of stacked arrays, one point being a chunk of one,
and chunks may be evaluated in parallel; records are always emitted in
row-major axis order regardless of execution order and unstable points
carry explicit nulls, never zeros.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from io import StringIO

import numpy as np

from . import dynamics, lyapunov, measures
from .params import PhysicalParams, reference_baseline
from .steady_state import effective_coupling, solve_steady_states

E_COLUMNS = tuple("E_%s%s" % p for p in measures.PAIRS)
ST_COLUMNS = tuple(col for a, b in measures.PAIRS
                   for col in (f"st_{a}_to_{b}", f"st_{b}_to_{a}"))
MEASURE_COLUMNS = E_COLUMNS + ST_COLUMNS
AMPLITUDE_COLUMNS = ("abs_a1", "abs_a2", "abs_m", "q_avg")

_PARAM_FIELDS = {f.name for f in fields(PhysicalParams)}
_NUMERIC_PARAM_FIELDS = {f.name for f in fields(PhysicalParams)
                         if f.type is float or f.type == "float"}
AXIS_NAMES = _NUMERIC_PARAM_FIELDS | {"eta"}

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
            if target not in _NUMERIC_PARAM_FIELDS:
                raise ValueError(f"unknown link target {target!r}")
            if source not in _NUMERIC_PARAM_FIELDS:
                raise ValueError(f"unknown link source {source!r}")
        normalize_quantities(self.quantities)

    def axis_names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)


@dataclass
class SweepRecord:
    """Result of one pipeline evaluation.

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
            requested.add(q)
            if q.startswith("st_"):
                a, b = q[3:].split("_to_")
                pair = next(p for p in measures.PAIRS if set(p) == {a, b})
                requested.add("E_%s%s" % pair)
        else:
            raise ValueError(f"unknown quantity {q!r}")
    cols = tuple(c for c in MEASURE_COLUMNS if c in requested)
    return cols, with_amplitudes


def _blank_record(axis_values, columns, warnings, margin=None,
                  residual=None, amplitudes=None) -> SweepRecord:
    return SweepRecord(axis_values=tuple(axis_values), stable=False,
                       measures={c: None for c in columns}, margin=margin,
                       residual=residual, amplitudes=amplitudes,
                       warnings=tuple(warnings))


def _columns_by_pair(columns) -> dict[tuple[str, str], list[str]]:
    by_pair: dict[tuple[str, str], list[str]] = {}
    for col in columns:
        if col.startswith("E_"):
            pair = next(p for p in measures.PAIRS if "E_%s%s" % p == col)
        else:
            a, b = col[3:].split("_to_")
            pair = next(p for p in measures.PAIRS if set(p) == {a, b})
        by_pair.setdefault(pair, []).append(col)
    return by_pair


def _evaluate_chunk(params_seq, axis_values, quantities, drift_mode: str,
                    epsilon_d: float) -> list[SweepRecord]:
    """Run the pipeline for a chunk of points as stacked (N, 8, 8) arrays.

    Steady state, drift, diffusion, stability, Lyapunov solve and pair
    measures each run once on the chunk's stack.  Every stacked
    operation acts slice by slice, so a point's record does not depend
    on the chunk it falls in.
    """
    columns, with_amplitudes = normalize_quantities(quantities)
    records: list[SweepRecord | None] = [None] * len(params_seq)
    warnings: list[list[str]] = [[] for _ in params_seq]
    # k indexes the chunk, j the points with a steady state (``live``),
    # i the rows of each later stack

    state = solve_steady_states(params_seq, epsilon_d)
    residual = state.residual.tolist()
    live = []
    for k, (error, converged) in enumerate(zip(state.errors,
                                               state.converged.tolist())):
        if error is not None:
            warnings[k].append(f"steady state singular: {error}")
            records[k] = _blank_record(axis_values[k], columns, warnings[k])
        elif not converged:
            warnings[k].append("steady state did not converge "
                               f"(residual {residual[k]:.3e})")
            records[k] = _blank_record(axis_values[k], columns, warnings[k],
                                       residual=residual[k])
        else:
            # an overflowed drive in direct_g mode: the amplitudes do not
            # enter the fluctuations, so the measures stand
            if not math.isfinite(residual[k]):
                warnings[k].append("steady state residual not finite "
                                   f"(residual {residual[k]:.3e})")
            live.append(k)
    if not live:
        return records

    live_params = [params_seq[k] for k in live]
    # the effective coupling: prescribed in direct_g mode,
    # |i*sqrt(2)*g_mb*<m>| in microscopic mode
    g_eff = np.array([p.G_mb for p in live_params])
    micro = [j for j, p in enumerate(live_params)
             if p.coupling_mode == "microscopic"]
    if micro:
        g_mb = np.array([live_params[j].g_mb for j in micro])
        g_eff[micro] = np.abs(effective_coupling(
            g_mb, state.m_avg[live][micro]))
    A = dynamics.drift_matrices(live_params, state.delta_eff[live], g_eff,
                                mode=drift_mode)
    D, d_warnings = dynamics.diffusion_matrices(live_params)
    report = dynamics.stability(A, [p.kappa_1 for p in live_params])

    stable = []
    for j, k in enumerate(live):
        warnings[k].extend(d_warnings[j])
        if report.indeterminate[j]:
            warnings[k].append("stability indeterminate: eigensolver failed")
            records[k] = _blank_record(axis_values[k], columns, warnings[k],
                                       residual=residual[k])
        elif not report.stable[j]:
            records[k] = _blank_record(
                axis_values[k], columns, warnings[k],
                margin=float(report.margin[j]), residual=residual[k],
                amplitudes=_amplitudes(state, k) if with_amplitudes else None)
        else:
            stable.append(j)
    if not stable:
        return records

    V = lyapunov.solve_lyapunov(A[stable], D[stable],
                                eig=(report.eigenvalues[stable],
                                     report.eigenvectors[stable]))
    finite = np.isfinite(V).all(axis=(1, 2))
    rows = []
    for i, j in enumerate(stable):
        if finite[i]:
            rows.append(j)
            continue
        k = live[j]
        warnings[k].append("singular Lyapunov system: no finite solution")
        records[k] = _blank_record(axis_values[k], columns, warnings[k],
                                   margin=float(report.margin[j]),
                                   residual=residual[k])
    if not rows:
        return records

    V = V[finite]
    lyap_residual = lyapunov.lyapunov_residual(A[rows], V, D[rows])
    physicality = lyapunov.physicality_min_eig(V)
    values = [{} for _ in rows]
    for pair, cols in _columns_by_pair(columns).items():
        cms = measures.reduce_pair(V, pair)
        # entanglement first: its symplectic screen decides whether the
        # reduced state is physical enough to report at all
        e_values, e_errors = measures.log_negativity(cms)
        steer = {}
        for col in cols:
            if col.startswith("st_"):
                a, b = col[3:].split("_to_")
                direction = "forward" if (a, b) == pair else "backward"
                steer[col] = measures.steering(cms, direction)
        for i, j in enumerate(rows):
            k = live[j]
            if e_errors[i] is not None:
                warnings[k].append(f"pair {pair[0]}-{pair[1]}: "
                                   f"{e_errors[i]}")
                values[i].update(dict.fromkeys(cols))
                continue
            for col in cols:
                if col.startswith("E_"):
                    values[i][col] = float(e_values[i])
                    continue
                st_values, st_errors = steer[col]
                if st_errors[i] is None:
                    values[i][col] = float(st_values[i])
                else:
                    values[i][col] = None
                    warnings[k].append(f"{col}: {st_errors[i]}")

    for i, j in enumerate(rows):
        k = live[j]
        records[k] = SweepRecord(
            axis_values=tuple(axis_values[k]),
            stable=True,
            measures=values[i],
            margin=float(report.margin[j]),
            physicality=float(physicality[i]),
            residual=residual[k],
            lyap_residual=float(lyap_residual[i]),
            amplitudes=_amplitudes(state, k) if with_amplitudes else None,
            warnings=tuple(warnings[k]),
        )
    return records


def _amplitudes(state, k: int) -> tuple[float, float, float, float]:
    return (abs(complex(state.a1_avg[k])), abs(complex(state.a2_avg[k])),
            abs(complex(state.m_avg[k])), float(state.q_avg[k]))


def evaluate_point(params: PhysicalParams, *,
                   quantities=("all",), drift_mode: str = "derived",
                   epsilon_d: float = 0.0,
                   axis_values: tuple[float, ...] = ()) -> SweepRecord:
    """Run the full pipeline for one parameter point: the one-point
    chunk of the kernel that sweeps run.

    Solver failures are folded into the record (nulled measures plus a
    warning string); this function does not raise for per-point physics
    problems, so sweeps always complete.
    """
    return _evaluate_chunk([params], [axis_values], quantities, drift_mode,
                           epsilon_d)[0]


def build_point_params(spec: SweepSpec,
                       values: tuple[float, ...]) -> PhysicalParams:
    """Apply axis values, then links in order, to the base parameter set."""
    changes: dict[str, float] = {}
    for axis, value in zip(spec.axes, values):
        if axis.name == "eta":
            changes["gain_g"] = spec.base.kappa_2 - value * spec.base.kappa_1
        else:
            changes[axis.name] = float(value)
    for target, source, factor in spec.links:
        source_value = changes.get(source, getattr(spec.base, source))
        changes[target] = factor * source_value
    return replace(spec.base, **changes)


def grid_values(spec: SweepSpec):
    """Row-major list of axis value tuples."""
    axes = [ax.values() for ax in spec.axes]
    if len(axes) == 1:
        return [(float(v),) for v in axes[0]]
    return [(float(u), float(v)) for u in axes[0] for v in axes[1]]


def _evaluate_points(spec: SweepSpec, points) -> list[SweepRecord]:
    """Records of a run of grid points, evaluated as one chunk."""
    records: list[SweepRecord | None] = [None] * len(points)
    columns, _ = normalize_quantities(spec.quantities)
    valid, valid_params = [], []
    for k, values in enumerate(points):
        try:
            valid_params.append(build_point_params(spec, values))
            valid.append(k)
        except ValueError as exc:
            records[k] = _blank_record(
                values, columns, [f"invalid parameters at this point: {exc}"])
    chunk = _evaluate_chunk(valid_params, [points[k] for k in valid],
                            spec.quantities, spec.drift_mode, spec.epsilon_d)
    for k, rec in zip(valid, chunk):
        records[k] = rec
    return records


def run_sweep(spec: SweepSpec, *, jobs: int = 1) -> list[SweepRecord]:
    """Evaluate the grid; records in deterministic row-major order.

    The grid is cut into chunks of ``CHUNK_POINTS`` points, each run as
    one stacked evaluation.  With ``jobs > 1`` whole chunks are farmed
    out to worker processes; the result is identical to a serial run
    because every point is a pure function of its parameters.
    """
    points = grid_values(spec)
    chunks = [points[i:i + CHUNK_POINTS]
              for i in range(0, len(points), CHUNK_POINTS)]
    task = partial(_evaluate_points, spec)
    if jobs <= 1:
        parts = map(task, chunks)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(task, chunks))
    return [rec for part in parts for rec in part]


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

    def entanglement(rec: SweepRecord) -> float:
        value = rec.measures.get(column)
        return value if (rec.stable and value is not None) else 0.0

    ts = np.linspace(0.0, t_max, coarse_points)
    coarse = _evaluate_chunk([params.with_(temperature_T=t) for t in ts],
                             [()] * len(ts), (column,), drift_mode, epsilon_d)
    es = [entanglement(rec) for rec in coarse]
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
        mids = grid[1:-1]
        found = _evaluate_chunk(
            [params.with_(temperature_T=t) for t in mids], [()] * len(mids),
            (column,), drift_mode, epsilon_d)
        i, j = 0, len(grid) - 1
        while j - i > 1 and hi - lo > tol_t:
            k = (i + j) // 2
            if entanglement(found[k - 1]) > tol_e:
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

def _fmt(value) -> str:
    if value is None:
        return ""
    return "%.17g" % value


def csv_columns(spec: SweepSpec) -> list[str]:
    _, with_amplitudes = normalize_quantities(spec.quantities)
    cols = list(spec.axis_names()) + ["stable"] + list(MEASURE_COLUMNS)
    cols += ["margin", "physicality", "residual", "lyap_residual"]
    if with_amplitudes:
        cols += list(AMPLITUDE_COLUMNS)
    cols.append("warnings")
    return cols


def write_csv(records, spec: SweepSpec, stream) -> None:
    """Lossless CSV: every column named, 17 significant digits, nulls
    as empty fields."""
    writer = csv.writer(stream, lineterminator="\n")
    _, with_amplitudes = normalize_quantities(spec.quantities)
    writer.writerow(csv_columns(spec))
    for rec in records:
        row = [_fmt(v) for v in rec.axis_values]
        row.append("true" if rec.stable else "false")
        row += [_fmt(rec.measures.get(c)) for c in MEASURE_COLUMNS]
        row += [_fmt(rec.margin), _fmt(rec.physicality),
                _fmt(rec.residual), _fmt(rec.lyap_residual)]
        if with_amplitudes:
            amps = rec.amplitudes or (None,) * 4
            row += [_fmt(a) for a in amps]
        row.append(";".join(rec.warnings))
        writer.writerow(row)


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
    """Render records to a CSV or JSON-lines string per the spec format."""
    buf = StringIO()
    if spec.output_format == "jsonl":
        write_jsonl(records, spec, buf)
    else:
        write_csv(records, spec, buf)
    return buf.getvalue()
