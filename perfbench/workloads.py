"""Seeded inputs of the four benchmark workloads and the calls that run them.

The workloads are defined here, not read from the package, so that a
change to ``magmech`` cannot change what the benchmark feeds it.  Seed 0
reproduces the shipped figure presets exactly; any other seed shifts
each axis window by a sub-step offset (sweeps) or redraws the gain/loss
ratios (Tc searches), always inside the same physical ranges.

A sweep call is one ``magmech sweep --config <file> --out <file>``
command, so it pays for config parsing, the grid, rendering and writing
the output file, as a user regenerating a figure table does.  A Tc call
is one ``find_critical_temperature`` search to its 1 mK default
tolerance.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

import check
from check import ST_COLUMNS

TWO_PI = 2.0 * math.pi
OMEGA_B = TWO_PI * 10e6
KAPPA_1 = TWO_PI * 1e6

# The reference parameter table behind every figure preset.
BASE = dict(
    omega_b=OMEGA_B, omega_1=TWO_PI * 10e9, omega_2=TWO_PI * 10e9,
    omega_m=TWO_PI * 10e9, Delta_1=-0.91 * OMEGA_B, Delta_2=-0.91 * OMEGA_B,
    Delta_m=0.89 * OMEGA_B, kappa_1=KAPPA_1, kappa_2=KAPPA_1,
    kappa_m=TWO_PI * 0.56e6, gain_g=1.5 * KAPPA_1, gamma_b=TWO_PI * 100.0,
    g_ma=TWO_PI * 3.2e6, J=2.0 * KAPPA_1, temperature_T=0.015,
    coupling_mode="direct_g", G_mb=TWO_PI * 3.2e6,
    diffusion_convention="as_printed",
)

ENT_QUADS = ("E_a1b", "E_a2b", "E_a1m", "E_a2m")
ST_FIG7 = ("st_a2_to_m", "st_m_to_a2", "st_a1_to_a2", "st_a2_to_a1")
LINK_EQUAL = "Delta_2:Delta_1"

WORKLOADS = ("grid2d", "lines_1d", "tc_curve", "micro_sweep")


@dataclass(frozen=True)
class Sweep:
    """A 1-D sweep: fixed parameters, one axis, requested columns."""

    key: str
    axis: str
    start: float
    stop: float
    count: int
    quantities: tuple[str, ...]
    changes: dict = field(default_factory=dict)
    links: str = ""
    epsilon_d: float = 0.0


# fig2d, fig4a-c, fig5a-b and fig7a-b exactly as the presets define them.
LINE_PRESETS = (
    Sweep("fig2d", "temperature_T", 0.0, 0.3, 201, ("E_a1m", "E_a2m")),
    Sweep("fig4a", "J", 0.0, 4.0 * KAPPA_1, 401, ENT_QUADS),
    Sweep("fig4b", "g_ma", 0.0, 5.0 * KAPPA_1, 201, ENT_QUADS),
    Sweep("fig4c", "G_mb", 0.0, 6.4 * KAPPA_1, 201, ENT_QUADS),
    Sweep("fig5a", "J", 0.0, 4.0 * KAPPA_1, 201, ST_COLUMNS),
    Sweep("fig5b", "J", 0.0, 4.0 * KAPPA_1, 201, ST_COLUMNS,
          dict(Delta_1=0.06 * OMEGA_B, Delta_2=-0.06 * OMEGA_B,
               Delta_m=0.375 * OMEGA_B), links="Delta_2:Delta_1:-1.0"),
    Sweep("fig7a", "Delta_m", 0.0, 2.0 * OMEGA_B, 201, ST_FIG7,
          dict(Delta_1=-0.96 * OMEGA_B, Delta_2=-0.96 * OMEGA_B)),
    Sweep("fig7b", "Delta_m", 0.0, 2.0 * OMEGA_B, 201, ST_FIG7,
          dict(Delta_1=-0.13 * OMEGA_B, Delta_2=-0.13 * OMEGA_B)),
)

MICRO = Sweep("micro", "Delta_m", 0.0, 2.0 * OMEGA_B, 401, ("all",),
              dict(coupling_mode="microscopic", g_mb=TWO_PI * 0.2),
              epsilon_d=1e15)

# fig2a: Delta_1 x eta, 201 x 201, Delta_2 linked to Delta_1.  Every
# GRID_ROW_STRIDE-th row of fixed Delta_1 is one sweep call over eta;
# few enough distinct calls that each repeats many times in a run.
GRID_ROWS = ("Delta_1", -2.0 * OMEGA_B, 0.0, 201)
GRID_ROW_STRIDE = 10
GRID_ROW = Sweep("grid2d", "eta", -1.0, 1.0, 201, ("E_a2m",),
                 dict(Delta_m=0.9 * OMEGA_B), links=LINK_EQUAL)

# eta windows inside which the pair is entangled at T = 0 with margin,
# so every search runs the full coarse scan and its bisection.  Seed 0
# takes the eta values of a 21-point grid over [-1, 1] in each window.
TC_WINDOWS = {("a2", "m"): (-0.6, 1.0), ("a1", "m"): (-0.5, 0.0)}
TC_ETA_GRID = 21


def seeded_window(start, stop, count, rng):
    """Axis window of the preset (rng None) or shifted by a sub-step.

    The shifted window keeps the point count and lies strictly inside
    [start, stop]: its step is (stop - start) / count and its first
    point sits a uniform fraction of that step above ``start``.
    """
    if rng is None:
        return start, stop
    step = (stop - start) / count
    u = rng.uniform(0.0, 1.0)
    return start + u * step, start + (count - 1 + u) * step


def negative_noise(params: dict) -> bool:
    """Whether the cavity-2 noise entry is negative at this point."""
    return (params["diffusion_convention"] == "as_printed"
            and params["kappa_2"] - params["gain_g"] < 0)


def config_text(sweep: Sweep, params: dict, axes) -> str:
    """INI text of a sweep over ``axes``, (name, start, stop, count)
    tuples; floats are written with repr so they parse back exactly."""
    lines = ["[system]"]
    for key, value in params.items():
        text = value if isinstance(value, str) else repr(float(value))
        lines.append(f"{key} = {text}")
    if sweep.epsilon_d:
        lines.append(f"epsilon_d = {float(sweep.epsilon_d)!r}")
    lines += ["", "[sweep]"]
    for i, (name, start, stop, count) in enumerate(axes, 1):
        lines.append(f"axis{i} = {name}, {float(start)!r}, {float(stop)!r}, "
                     f"{count}")
    lines.append("quantities = " + ", ".join(sweep.quantities))
    if sweep.links:
        lines.append(f"links = {sweep.links}")
    lines += ["", "[output]", "format = csv", ""]
    return "\n".join(lines)


@dataclass
class SweepCall:
    """One ``magmech sweep`` command and what its output must satisfy.

    On seed 0 its output is rows ``ref_start`` onwards of reference
    table ``ref_key``.
    """

    key: str
    config: str
    columns: tuple[str, ...]
    negative_noise: np.ndarray
    n_points: int
    ref_key: str
    ref_start: int = 0


@dataclass
class TcCall:
    """One Tc search; on seed 0 its reference is keyed by ``key``."""

    key: str
    pair: tuple[str, str]
    params: dict
    n_points: int = 1


def _sweep_call(sweep: Sweep, key: str, changes: dict, rng, workdir: str,
                ref_start: int = 0):
    params = dict(BASE, **sweep.changes, **changes)
    start, stop = seeded_window(sweep.start, sweep.stop, sweep.count, rng)
    values = np.linspace(start, stop, sweep.count)
    if sweep.axis == "eta":
        noise = values < 0  # net cavity-2 damping is eta * kappa_1
    else:
        noise = np.full(sweep.count, negative_noise(params))
    path = os.path.join(workdir, key.replace("/", "_") + ".cfg")
    with open(path, "w") as fh:
        fh.write(config_text(sweep, params,
                             [(sweep.axis, start, stop, sweep.count)]))
    return SweepCall(key, path, check.expand_quantities(sweep.quantities),
                     noise, sweep.count, sweep.key, ref_start)


class Workload:
    """Inputs of one workload and the way to run and check one call.

    ``calls`` is one pass over the workload's distinct calls.  A timed
    run repeats whole passes; the traced run makes one pass, so its
    counts repeat exactly.  ``execute`` is the timed part of a call;
    ``collect`` reads its output and ``failures`` checks it, against
    the seed-0 ``reference`` when one is given.
    """

    def __init__(self, magmech, seed: int, workdir: str):
        self.magmech = magmech
        self.workdir = workdir
        rng = None if seed == 0 else np.random.default_rng([seed, 1249])
        os.makedirs(workdir, exist_ok=True)
        self.calls = self._build(rng)


class SweepWorkload(Workload):

    def execute(self, call: SweepCall):
        out = os.path.join(self.workdir, "out.csv")
        with contextlib.redirect_stderr(io.StringIO()):
            code = self.magmech.cli.main(["sweep", "--config", call.config,
                                          "--out", out])
        if code != 0:
            raise RuntimeError(f"magmech sweep exited with {code}")
        return out

    def collect(self, call: SweepCall, out) -> check.Table:
        with open(out) as fh:
            return check.parse_csv(fh.read(), call.columns,
                                   call.negative_noise)

    def warm_up(self):
        out = os.path.join(self.workdir, "point.json")
        with contextlib.redirect_stderr(io.StringIO()):
            code = self.magmech.cli.main(["point", "--config",
                                          self.calls[0].config, "--out", out])
        if code != 0:
            raise RuntimeError(f"magmech point exited with {code}")

    def failures(self, call: SweepCall, table: check.Table,
                 ref=None) -> np.ndarray:
        return check.table_failures(table, ref)

    def reference(self, call: SweepCall, tables: dict, tc: dict):
        return tables[call.ref_key].rows(call.ref_start,
                                         call.ref_start + call.n_points)

    def spec(self, config: str):
        return self.magmech.config.load_config(config)["spec"]


class Grid2d(SweepWorkload):
    """Every ``GRID_ROW_STRIDE``-th row of fig2a, one sweep call each."""

    def _build(self, rng):
        name, start, stop, count = GRID_ROWS
        lo, hi = seeded_window(start, stop, count, rng)
        eta_lo, eta_hi = seeded_window(GRID_ROW.start, GRID_ROW.stop,
                                       GRID_ROW.count, rng)
        row_sweep = Sweep(GRID_ROW.key, "eta", eta_lo, eta_hi, GRID_ROW.count,
                          GRID_ROW.quantities, GRID_ROW.changes,
                          GRID_ROW.links)
        self.rows = np.linspace(lo, hi, count)
        self.row_sweep = row_sweep
        return [_sweep_call(row_sweep, f"grid2d/{r}",
                            {name: self.rows[r], "Delta_2": self.rows[r]},
                            None, self.workdir, i * GRID_ROW.count)
                for i, r in enumerate(range(0, count, GRID_ROW_STRIDE))]

    def block_config(self, first: int, n_rows: int) -> str:
        """Config of a 2-D sweep over ``n_rows`` rows from ``first``."""
        sweep = self.row_sweep
        axes = [(GRID_ROWS[0], self.rows[first], self.rows[first + n_rows - 1],
                 n_rows), (sweep.axis, sweep.start, sweep.stop, sweep.count)]
        path = os.path.join(self.workdir, f"block_{first}_{n_rows}.cfg")
        with open(path, "w") as fh:
            fh.write(config_text(sweep, dict(BASE, **sweep.changes), axes))
        return path


class Lines1d(SweepWorkload):

    def _build(self, rng):
        return [_sweep_call(s, s.key, {}, rng, self.workdir)
                for s in LINE_PRESETS]


class MicroSweep(SweepWorkload):
    # every 40th Delta_m point, for the root-scan timing
    ROOT_SCAN_STRIDE = 40

    def _build(self, rng):
        return [_sweep_call(MICRO, MICRO.key, {}, rng, self.workdir)]


class TcCurve(Workload):

    def _build(self, rng):
        grid = np.linspace(-1.0, 1.0, TC_ETA_GRID)
        calls = []
        for pair, (lo, hi) in TC_WINDOWS.items():
            etas = grid[(grid >= lo - 1e-12) & (grid <= hi + 1e-12)]
            if rng is not None:
                etas = np.sort(rng.uniform(lo, hi, len(etas)))
            for eta in etas:
                params = dict(BASE, gain_g=BASE["kappa_2"]
                              - float(eta) * BASE["kappa_1"])
                calls.append(TcCall("tc/%s%s/%.17g" % (pair + (eta,)),
                                    pair, params))
        return calls

    def execute(self, call: TcCall):
        params = self.magmech.PhysicalParams(**call.params)
        tc, _warnings = self.magmech.find_critical_temperature(params,
                                                               call.pair)
        return tc

    def collect(self, call: TcCall, tc) -> tuple[float, float, float]:
        """Tc and the pair's E_N 1 mK below and above it; an unstable
        point counts as not entangled."""
        column = "E_%s%s" % call.pair

        def entanglement(T):
            params = dict(call.params, temperature_T=T)
            rec = self.magmech.evaluate_point(
                self.magmech.PhysicalParams(**params), quantities=(column,))
            value = rec.measures.get(column) if rec.stable else 0.0
            return np.nan if value is None else value

        tc = float(tc)
        return tc, entanglement(tc - check.TC_TOL), \
            entanglement(tc + check.TC_TOL)

    def failures(self, call: TcCall, result, ref=None) -> np.ndarray:
        tc, below, above = result
        return check.tc_failures([tc], [below], [above],
                                 None if ref is None else [ref])

    def reference(self, call: TcCall, tables: dict, tc: dict):
        return tc[call.key]

    def warm_up(self):
        call = self.calls[0]
        params = self.magmech.PhysicalParams(**dict(call.params,
                                                    temperature_T=0.0))
        self.magmech.evaluate_point(params, quantities=("E_%s%s" % call.pair,))


def make(name: str, magmech, seed: int, workdir: str) -> Workload:
    """Workload ``name`` with inputs from ``seed``, written under
    ``workdir``, run with the imported package ``magmech``."""
    classes = {"grid2d": Grid2d, "lines_1d": Lines1d, "tc_curve": TcCurve,
               "micro_sweep": MicroSweep}
    return classes[name](magmech, seed, workdir)
