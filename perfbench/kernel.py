"""Machine-speed normalisation.

The machine's speed drifts: the same pure-Python loop runs in 1.3 ms for a
second or two and in 2.1 ms for the next.  A fixed pure-Python reference
kernel is therefore timed just before and just after every operation, and
the operation's wall time is scaled by NOMINAL_S over the kernel time around
it.  A normalised second is a second on a machine where the kernel takes
exactly NOMINAL_S.  Neither the kernel nor NOMINAL_S may change, or figures
from before and after the change stop being comparable.
"""

from __future__ import annotations

import statistics
import time

# Median kernel time over about 9,900 samples taken in ten 15-20 s benchmark
# runs on the 2-core sandbox the figures in README.md come from.
NOMINAL_S = 0.0018

# An operation's speed estimate is the median of the kernel times taken
# around it and around its WINDOW neighbours on either side: one kernel
# sample is too noisy, and the speed phases last seconds.
WINDOW = 3


def kernel() -> int:
    """Integer arithmetic, a dict store and loop overhead: what normcensus does."""
    acc = 0
    table = {}
    for i in range(10_000):
        acc = (acc * 31 + i * i) % 1_000_003
        table[i & 255] = acc
    return acc


def kernel_time() -> float:
    """Seconds the kernel takes now; the lesser of two runs, so a single
    preemption does not count as a slow machine."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def timed(fn, *args, **kwargs):
    """Run fn; return (result, wall seconds, kernel time before, kernel time after)."""
    before = kernel_time()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    return result, wall, before, kernel_time()


def normalise(walls: list[float], before: list[float], after: list[float]) -> list[float]:
    """Scale each wall time by NOMINAL_S over the median kernel time around
    that operation and its WINDOW neighbours either side."""
    out = []
    for i, wall in enumerate(walls):
        lo, hi = max(0, i - WINDOW), i + WINDOW + 1
        out.append(wall * NOMINAL_S / statistics.median(before[lo:hi] + after[lo:hi]))
    return out
