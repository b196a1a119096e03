"""Job time corrected for the machine's changing speed.

On a shared 2-vCPU machine the speed of a vCPU changes by up to 2x from one
second to the next as other tenants load its core, and a whole run can land
in a slow spell.  Raw wall time then varies between runs by far more than
any change worth detecting: over five runs of 20 s each, the interquartile
range of the per-run medians was 25-45% of the median.  A reference loop
timed in the parent process, between workers, does not follow the worker's
speed at all.  So the worker itself times a fixed loop, owned by the
benchmark and not by doubleflag, every TICK_S seconds from a SIGALRM
handler, also in the middle of a job.  Each stretch of job time is divided
by the loop's duration around the tick right after it (the median of that
tick's run and its two neighbours'), which gives the work done in loop
units; times REF_LOOP_S, that is the stretch's duration at the reference
speed.  Time spent in the handler is left out.  The loop runs with the
garbage collector off, so doubleflag's heap does not change its cost.

Process CPU time is no steadier than wall time: over five runs it followed
wall time within 1%, so the slowdown comes from sharing the core, not from
time the process is off it.

The correction is close, not exact: comparing stretches where the loop ran
slowest with those where it ran fastest, the loop's slowdown matched that of
each layer within 6%.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_right

TICK_S = 0.1
# The loop's duration on an uncontended 2-vCPU Intel Xeon VM under Python
# 3.11.7; it only sets the scale of the reported seconds.
REF_LOOP_S = 0.0017


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


_ROWS = [tuple((i * 7 + j) % 5 for j in range(12)) for i in range(40)]


def reference_loop() -> int:
    """A fixed mix of the operations doubleflag spends its time on.  Under
    contention, dict-heavy code alone slowed 2-12% less than doubleflag's
    layers and generator-heavy code alone 1-6% more; this mix of both
    tracked each layer within 6%."""
    counts = {}
    for i in range(1200):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
    marks = frozenset(x for x in range(400) if x % 3)
    n = len(sorted(counts.items())) + sum(1 for x in range(400) if x in marks)
    for a in _ROWS:
        for b in _ROWS[:20]:
            n += all(x >= y for x, y in zip(a, b))
    n += sum(p.a * p.b for p in [_Pair(i, i % 3) for i in range(200)])
    for row in [[(i * j) % 5 for j in range(6)] for i in range(30)]:
        n += len([x * 2 % 5 for x in row])
    return n


def loop_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    reference_loop()
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class SpeedMeter:
    """Times the reference loop on every tick between ``start`` and
    ``stop``; ``reference_s`` then converts intervals recorded meanwhile.
    The handler only appends to a list, so a tick that lands anywhere in
    the worker's own code is harmless."""

    def __init__(self):
        now = time.perf_counter()
        # (start, end, loop duration) of each tick's loop
        self.ticks = [(now, now, loop_seconds())]
        self._ends = None
        self._loop_s = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        loop_s = loop_seconds()
        self.ticks.append((start, time.perf_counter(), loop_s))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._ends = [end for _, end, _ in self.ticks]
        loops = [loop_s for _, _, loop_s in self.ticks]
        self._loop_s = [
            statistics.median(loops[max(0, k - 1) : k + 2]) for k in range(len(loops))
        ]

    def reference_s(self, start: float, end: float) -> float:
        """An interval's duration at the reference speed, less the ticks
        inside it.  Each stretch between two ticks is divided by the loop
        duration around the tick that ends it, and the stretch after the
        last tick by the last one's, so an interval's reference time is the
        sum of its parts' and a span's self time is never negative."""
        k = bisect_right(self._ends, start)
        work = 0.0
        loop_s = self._loop_s[-1]
        later = zip(self.ticks[k:], self._loop_s[k:])
        for (tick_start, tick_end, _), tick_loop_s in later:
            if tick_start >= end:
                loop_s = tick_loop_s
                break
            work += (tick_start - start) / tick_loop_s
            start = tick_end
        work += (end - start) / loop_s
        return work * REF_LOOP_S
