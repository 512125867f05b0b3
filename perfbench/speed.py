"""Machine speed, measured by a fixed loop that does not touch combgrad.

On a machine shared with other tenants the same code can run 1.5x slower
for minutes at a time, which would swamp the differences the benchmark
exists to show.  The benchmark therefore reports times at a reference
speed: a measured duration is divided by the current slowdown, the time of
this loop over REFERENCE_S.  The loop mixes interpreter-bound scalar
indexing with small numpy products, the blend the solver kernels and the
tape run.  Raw figures are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 1e-3
_REPEATS = 15


def _loop() -> float:
    a = np.zeros(65)
    m = np.full((24, 24), 0.01)
    low = 0.0
    for i in range(1, 1500):
        x = a[i % 64] + 0.5
        if x < low:
            low = x
        a[i % 64 + 1] = x * 0.5
        if i % 30 == 0:
            m = np.tanh(m @ m + 0.01)
    return low + float(m[0, 0])


def slowdown() -> float:
    """Median time of the loop over REFERENCE_S (1.0 = reference speed)."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_S
