"""Correctness check behind ``bad_frac``.

Every seed is held to the pipeline's invariants: on stable points the
Lyapunov residual is below 1e-10, the covariance is physical (minimum
eigenvalue of V + i/2 Omega >= -1e-9) wherever the noise is
non-negative, every reported measure is finite, a stable point reports
a null only together with a warning, an unstable point reports nulls
only, and steering implies entanglement.

Seed 0 reproduces the shipped presets, so its outputs are also compared
with the committed reference (``reference.npz``, written by
``make_reference.py``):

- the stable mask is identical, except points whose reference |margin|
  lies within the 1e-9 kappa_1 gate tolerance;
- measures agree within 1e-12 relative, or 1e-12 absolute near zero;
- Tc agrees within 1 mK.

Every Tc is also checked against the pipeline itself: the pair is
entangled 1 mK below it and not 1 mK above it.

A reference point that is null because its steady state did not
converge may gain values, as long as they pass the invariants; a better
Picard solver is not a failure.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

PAIRS = (("a1", "a2"), ("a1", "m"), ("a2", "m"),
         ("a1", "b"), ("a2", "b"), ("m", "b"))
E_COLUMNS = tuple("E_%s%s" % p for p in PAIRS)
ST_COLUMNS = tuple(col for a, b in PAIRS
                   for col in (f"st_{a}_to_{b}", f"st_{b}_to_{a}"))

LYAP_RESIDUAL_MAX = 1e-10
PHYSICALITY_MIN = -1e-9
STEERING_EPS = 1e-9
MEASURE_TOL = 1e-12
TC_TOL = 1e-3
TC_ENTANGLED = 1e-6  # E_N above which the Tc search counts a pair entangled
KAPPA_1 = 2.0 * math.pi * 1e6
MARGIN_TOL = 1e-9 * KAPPA_1

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.npz")


def _pair_of(column: str) -> tuple[str, str]:
    if column.startswith("E_"):
        return next(p for p in PAIRS if "E_%s%s" % p == column)
    a, b = column[3:].split("_to_")
    return next(p for p in PAIRS if set(p) == {a, b})


def expand_quantities(quantities) -> tuple[str, ...]:
    """Measure columns a sweep reports: ``all`` means every column and a
    steering direction brings in its pair's entanglement column."""
    wanted = set()
    for q in quantities:
        if q == "all":
            wanted.update(E_COLUMNS + ST_COLUMNS)
        else:
            wanted.add(q)
            wanted.add("E_%s%s" % _pair_of(q))
    return tuple(c for c in E_COLUMNS + ST_COLUMNS if c in wanted)


@dataclass
class Table:
    """One sweep output: per-point arrays, nulls stored as NaN.

    ``malformed`` marks rows whose numbers did not parse or were
    non-finite.
    """

    columns: tuple[str, ...]
    stable: np.ndarray
    values: np.ndarray
    margin: np.ndarray
    physicality: np.ndarray
    lyap_residual: np.ndarray
    warned: np.ndarray
    unconverged: np.ndarray
    negative_noise: np.ndarray
    malformed: np.ndarray

    def __len__(self):
        return len(self.stable)


def _number(text: str) -> tuple[float, bool]:
    """(value, ok): empty text is a null, stored as NaN."""
    if text == "":
        return math.nan, True
    try:
        value = float(text)
    except ValueError:
        return math.nan, False
    return value, math.isfinite(value)


def parse_csv(text: str, columns, negative_noise) -> Table:
    """Read ``magmech`` CSV output by column name."""
    rows = list(csv.DictReader(io.StringIO(text)))
    n = len(rows)
    malformed = np.zeros(n, bool)
    if n != len(negative_noise):
        malformed[:] = True
        negative_noise = np.zeros(n, bool)

    def numbers(name):
        out = np.full(n, math.nan)
        for i, row in enumerate(rows):
            value, ok = _number(row.get(name, ""))
            out[i] = value
            malformed[i] |= not ok
        return out

    values = np.column_stack([numbers(c) for c in columns]) if columns \
        else np.zeros((n, 0))
    warnings = [row.get("warnings", "") for row in rows]
    return Table(
        columns=tuple(columns),
        stable=np.array([row.get("stable") == "true" for row in rows], bool),
        values=values,
        margin=numbers("margin"),
        physicality=numbers("physicality"),
        lyap_residual=numbers("lyap_residual"),
        warned=np.array([w != "" for w in warnings], bool),
        unconverged=np.array(["did not converge" in w for w in warnings],
                             bool),
        negative_noise=np.asarray(negative_noise, bool),
        malformed=malformed,
    )


def invariant_failures(t: Table) -> np.ndarray:
    """Per-point mask of invariant violations; holds on every seed."""
    s = t.stable
    null = np.isnan(t.values)
    bad = t.malformed.copy()
    bad |= s & ~(t.lyap_residual < LYAP_RESIDUAL_MAX)
    bad |= s & ~t.negative_noise & ~(t.physicality >= PHYSICALITY_MIN)
    bad |= s & null.any(axis=1) & ~t.warned
    bad |= ~s & ~null.all(axis=1)
    for j, col in enumerate(t.columns):
        if not col.startswith("st_"):
            continue
        e_col = "E_%s%s" % _pair_of(col)
        if e_col not in t.columns:
            continue
        e = t.values[:, t.columns.index(e_col)]
        bad |= (t.values[:, j] > STEERING_EPS) & ~(e > 0)
    return bad


@dataclass
class Reference:
    """What the seed-0 comparison needs of one table."""

    columns: tuple[str, ...]
    stable: np.ndarray
    values: np.ndarray
    near_boundary: np.ndarray
    unconverged: np.ndarray

    @classmethod
    def of(cls, t: Table) -> "Reference":
        return cls(t.columns, t.stable, t.values,
                   np.abs(t.margin) <= MARGIN_TOL, t.unconverged)

    def rows(self, start: int, stop: int) -> "Reference":
        return Reference(self.columns, self.stable[start:stop],
                         self.values[start:stop],
                         self.near_boundary[start:stop],
                         self.unconverged[start:stop])


def reference_failures(t: Table, ref: Reference) -> np.ndarray:
    """Per-point mask of disagreements with the seed-0 reference."""
    if len(t) != len(ref.stable) or t.columns != ref.columns:
        return np.ones(len(t), bool)
    bad = t.stable != ref.stable
    a, b = t.values, ref.values
    null_differs = np.isnan(a) != np.isnan(b)
    with np.errstate(invalid="ignore"):
        far = np.abs(a - b) > MEASURE_TOL * np.maximum(np.abs(b), 1.0)
    bad |= t.stable & ref.stable & (null_differs | far).any(axis=1)
    return bad & ~ref.near_boundary & ~ref.unconverged


def table_failures(t: Table, ref: Reference | None = None) -> np.ndarray:
    bad = invariant_failures(t)
    if ref is not None:
        bad |= reference_failures(t, ref)
    return bad


def tc_failures(values, below, above, ref=None,
                t_max: float = 2.0) -> np.ndarray:
    """Tc must lie strictly inside (0, t_max), the pair must be entangled
    1 mK below it (``below``, its E_N there) and not 1 mK above it
    (``above``), and on seed 0 Tc must lie within 1 mK of the reference.
    NaN stands for a search or an evaluation that failed."""
    v = np.asarray(values, float)
    with np.errstate(invalid="ignore"):
        bad = ~((v > 0) & (v < t_max))
        bad |= ~(np.asarray(below, float) > TC_ENTANGLED)
        bad |= ~(np.asarray(above, float) <= TC_ENTANGLED)
        if ref is not None:
            bad |= ~(np.abs(v - np.asarray(ref, float)) <= TC_TOL)
    return bad


# ---------------------------------------------------------------------------
# reference file: one group of arrays per table key, plus the Tc values

_FIELDS = ("stable", "values", "near_boundary", "unconverged")


def save_reference(path, tables: dict, tc: dict) -> None:
    """Write ``Reference`` objects by key and Tc values by call key."""
    arrays = {}
    for key, ref in tables.items():
        for name in _FIELDS:
            arrays[f"{key}|{name}"] = getattr(ref, name)
        arrays[f"{key}|columns"] = np.array(ref.columns, dtype=str)
    arrays["tc|keys"] = np.array(list(tc), dtype=str)
    arrays["tc|values"] = np.array(list(tc.values()), float)
    np.savez_compressed(path, **arrays)


def load_reference(path=REFERENCE) -> tuple[dict, dict]:
    """(``Reference`` by table key, Tc by call key)."""
    with np.load(path, allow_pickle=False) as z:
        data = {k: z[k] for k in z.files}
    tables = {}
    for key in {k.split("|")[0] for k in data} - {"tc"}:
        kw = {name: data[f"{key}|{name}"] for name in _FIELDS}
        kw["columns"] = tuple(str(c) for c in data[f"{key}|columns"])
        tables[key] = Reference(**kw)
    tc = dict(zip((str(k) for k in data["tc|keys"]),
                  (float(v) for v in data["tc|values"])))
    return tables, tc
