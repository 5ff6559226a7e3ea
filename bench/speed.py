"""Machine speed, measured by a fixed pure-Python loop between requests.

On the 2-core reference machine the CPU speed seen by one process varies by
up to 1.7x, in stretches of seconds, with the load of other tenants.  In a
60 s test of `fn exp 2` the median request time of 10 s windows ranged over
70 %; divided by the time of this loop, timed right before and after each
request, it ranged over 1.5 %.  The runner therefore reports every time
scaled to the speed at which the loop takes ``REFERENCE_S``: a time t
measured while the loop takes p is reported as t * REFERENCE_S / p.  The
raw times are kept in the run record.
"""

from __future__ import annotations

import math
from time import perf_counter

#: Loop time on the reference machine (x86_64, 2 cores, CPython 3.11) near
#: its fastest: the 5th percentile of 1500 timings over 20 s was 0.57 ms.
REFERENCE_S = 0.0006


def _loop() -> float:
    table: dict[int, float] = {}
    x = 0.0
    for i in range(3000):
        table[i & 63] = x
        x = math.sin(x + i) * 0.5 + table.get((i * 7) & 63, 0.0)
    return x


def loop_seconds() -> float:
    """Fastest of three runs of the loop, which drops interrupts."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _loop()
        best = min(best, perf_counter() - start)
    return best


class Speed:
    """Scale factors for consecutive intervals between loop timings."""

    def __init__(self):
        self._last = loop_seconds()

    def factor(self) -> float:
        """REFERENCE_S over the mean loop time at the two ends of the
        interval since the previous call."""
        now = loop_seconds()
        scale = 2.0 * REFERENCE_S / (self._last + now)
        self._last = now
        return scale
