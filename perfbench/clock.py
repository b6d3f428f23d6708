"""Clock probe: a fixed piece of work, timed right after every call.

Other tenants of a shared host change its effective CPU speed, by up to
a factor of two on a shared 2-vCPU Intel Xeon host, for stretches of
seconds to minutes, so a run of tens of seconds cannot wait them out.
The probe does the same kinds of work as a pipeline point (an 8x8
eigensolve, a 64x64 Kronecker solve, small determinants, float
formatting) without calling the package, and its time moves with the
package's: on that host, while both slowed by up to 2x, the ratio of a
call's time to the probe's stayed within a few per cent.  A call's time
times ``REFERENCE_S`` over the probe's time is the call's time at the
host's full clock.
"""

from __future__ import annotations

import math
import time

import numpy as np

# probe time at full clock on that host
REFERENCE_S = 1.3e-3

_RNG = np.random.default_rng(7)
_A = _RNG.normal(size=(8, 8)) - 4.0 * np.eye(8)
_D = np.diag(_RNG.uniform(0.5, 1.5, 8))
_EYE = np.eye(8)
_REPS = 10


def _work() -> float:
    acc = 0.0
    for _ in range(_REPS):
        ev = np.linalg.eigvals(_A)
        K = np.kron(_A, _EYE) + np.kron(_EYE, _A)
        V = np.linalg.solve(K, -_D.reshape(-1)).reshape(8, 8)
        block = V[np.ix_([0, 1, 2, 3], [0, 1, 2, 3])]
        acc += float(np.linalg.det(block[:2, :2])) + float(ev.real.max())
        parts = {f"c{i}": "%.17g" % v for i, v in enumerate(V[0])}
        acc += len(",".join(parts.values())) * 1e-9 + math.log(abs(acc) + 1)
    return acc


def probe() -> float:
    """Seconds the probe takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
