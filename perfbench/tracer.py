"""Spans around the public functions of every ``magmech`` module.

``Tracer.install`` replaces each public function (no leading
underscore, defined in the package) at every module namespace that
binds it, including re-exports, so functions that later changes add
are traced without editing the benchmark.  Spans stay in memory as
(function, start ns, end ns, parent span, call) and are written out
once, at the end.  A function's layer is the module that defines it.

Counts are taken where a call crosses into another layer, from what it
returns or raises: steady-state results (``iterations_used``,
``converged``), stability reports (``stable``, ``indeterminate``),
exceptions by class, and the extremes of ``lyapunov_residual`` and
``physicality_min_eig``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
import time
import types
from collections import Counter

import numpy as np


def package_modules(package) -> list[types.ModuleType]:
    """The package and every submodule, imported."""
    return [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                        for m in pkgutil.iter_modules(package.__path__)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list = []
        self.call = 0
        self.counts: Counter = Counter()
        self.max_residual = 0.0
        self.min_physicality = float("inf")
        self._stack: list[tuple[int, int]] = []
        self._patched: list = []
        self._wrappers: dict = {}

    def install(self, package) -> None:
        wrappers = self._wrappers
        prefix = package.__name__
        for module in package_modules(package):
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_")
                        or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(prefix)):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn):
        fid = len(self.names)
        layer = fn.__module__.rpartition(".")[2]
        self.names.append(f"{layer}.{fn.__name__}")
        self.layer_of.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(spans)
            parent, parent_fid = stack[-1] if stack else (-1, -1)
            boundary = parent_fid < 0 or self.layer_of[parent_fid] != layer
            spans.append(None)
            stack.append((idx, fid))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if boundary:
                    self.counts[f"{layer}.{type(exc).__name__}"] += 1
                raise
            finally:
                spans[idx] = (fid, t0, clock(), parent, self.call)
                stack.pop()
            if boundary:
                self._observe(fid, result)
            return result

        return span

    def _observe(self, fid: int, result) -> None:
        layer, name = self.layer_of[fid], self.names[fid]
        if hasattr(result, "converged") and hasattr(result, "iterations_used"):
            self.counts[f"{layer}.picard_iters"] += int(
                np.sum(result.iterations_used))
            self.counts[f"{layer}.unconverged"] += int(
                np.sum(~np.asarray(result.converged, bool)))
        if hasattr(result, "indeterminate") and hasattr(result, "stable"):
            self.counts[f"{layer}.verdicts"] += np.size(result.stable)
            self.counts[f"{layer}.stable"] += int(np.sum(result.stable))
            self.counts[f"{layer}.indeterminate"] += int(
                np.sum(result.indeterminate))
        if name.endswith(".lyapunov_residual"):
            self.max_residual = max(self.max_residual, float(np.max(result)))
        if name.endswith(".physicality_min_eig"):
            self.min_physicality = min(self.min_physicality,
                                       float(np.min(result)))

    def layer_times(self, scale) -> dict[str, dict[str, float]]:
        """Calls and self seconds of each layer, a span's time multiplied
        by ``scale[call]`` of the call it belongs to.

        A span's self time is its duration minus that of its child
        spans; children never overlap, since calls are serial.
        """
        if not self.spans:
            return {}
        s = np.array(self.spans, dtype=np.int64)
        fid, dur, parent = s[:, 0], s[:, 2] - s[:, 1], s[:, 3]
        child = np.zeros(len(s))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = (dur - child) * np.asarray(scale)[s[:, 4]]
        out = {}
        for f in np.unique(fid):
            layer = self.layer_of[f]
            entry = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            mask = fid == f
            entry["calls"] += int(mask.sum())
            entry["self_s"] += float(own[mask].sum()) * 1e-9
        return out

    def inclusive_s(self, function: str, scale) -> float:
        """Seconds inside outermost spans of a function, e.g.
        ``sweep.render_records``, scaled as in ``layer_times``."""
        fids = [i for i, n in enumerate(self.names) if n == function]
        total = 0.0
        for f, t0, t1, parent, call in self.spans:
            if f in fids and (parent < 0 or self.spans[parent][0] not in fids):
                total += (t1 - t0) * scale[call]
        return total * 1e-9

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("function\tstart_ns\tend_ns\tparent\tcall\n")
            for f, t0, t1, parent, call in self.spans:
                fh.write(f"{self.names[f]}\t{t0}\t{t1}\t{parent}\t{call}\n")
