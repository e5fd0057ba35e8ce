"""Machine-speed reference for scaling wall times.

On a shared machine the same computation can run 30% slower for a whole
run, and the fastest repeat within the run cannot undo that.  So between
operations the harness runs a fixed pure-Python reference computation,
at most every INTERVAL_S.  It then multiplies the run's times by
``NOMINAL_S / (fastest reference sample)``.  The result reads as the time
on a machine where the reference takes NOMINAL_S.  The reference belongs
to the benchmark, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import time

# The fastest reference sample on a quiet 2 GHz Xeon core; it sets only the
# scale of the reported times.
NOMINAL_S = 0.2
INTERVAL_S = 4.0
# Items the reference sorts and bisects: about 0.2 s on a quiet core.  A
# 20 ms reference caught brief fast moments that the program's operations,
# at 0.3 s and up, never see, and so misjudged slow runs.
REFERENCE_SIZE = 120_000


def reference() -> float:
    """Fixed work of the same kind as the program's: Python-level floats,
    lists, a sort, bisection and a dict."""
    state = 12345
    xs = []
    for _ in range(REFERENCE_SIZE):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        xs.append(state / 2147483648.0)
    xs.sort()
    acc = 0.0
    slots: dict[int, float] = {}
    for i, x in enumerate(xs):
        acc += x * bisect.bisect_left(xs, 0.5 * x)
        slots[i % 512] = acc
    return acc


class SpeedLog:
    def __init__(self) -> None:
        self.seconds: list[float] = []
        self._last = -float("inf")

    def sample(self) -> None:
        start = time.perf_counter()
        reference()
        self._last = time.perf_counter()
        self.seconds.append(self._last - start)

    def tick(self) -> None:
        """Take a reference sample unless the last one is recent."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        return NOMINAL_S / min(self.seconds)
