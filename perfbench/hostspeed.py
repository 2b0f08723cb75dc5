"""Timings expressed at a fixed host speed.

The container shares its CPUs: the same interpreter-bound work takes up to
50% longer for seconds at a time, and whole runs drift by 20-60%.  A fixed
reference kernel, which touches no repository code, is timed before every
unit of work.  Its running time tracks the pipeline's: over a minute in
which both swung by 50%, the ratio of the median time of a batch of corpus
systems (or of a PFC net) to the median kernel time stayed within about 4%.
A single long duration does not track it that well (±30%), so only
medians over many units are steadied this way.

A measured duration is divided by the host's slowdown around it (the median
kernel time within :data:`WINDOW_SECONDS`, over :data:`REFERENCE_SECONDS`).
That gives the duration on a host running at the reference speed, so a
change to the program moves it and the neighbours' load does not.  Raw
durations stay in the benchmark's ``detail:`` line.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

#: Fastest time of one :func:`kernel` call on the 2-core container the
#: benchmark was tuned on (Intel Xeon, Python 3.11).
REFERENCE_SECONDS = 0.00065

#: Probes this close to a duration's midpoint give its slowdown.
WINDOW_SECONDS = 1.5


def kernel() -> list:
    """Dict, tuple and sort work typical of the interpreter-bound pipeline."""
    table: dict = {}
    for i in range(1000):
        key = (i % 41, i // 41)
        table[key] = table.get(key, 0) + i
    return sorted(table.items())


class SpeedTrack:
    """Kernel timings over one run, queried by time."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.seconds: List[float] = []

    def probe(self) -> None:
        """Time the kernel once, now."""
        started = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self.at.append((started + ended) / 2)
        self.seconds.append(ended - started)

    def slowdown(self, start: float, end: float) -> float:
        """The host's slowdown around the interval ``[start, end]``."""
        middle = (start + end) / 2
        low = bisect.bisect_left(self.at, min(start, middle - WINDOW_SECONDS))
        high = bisect.bisect_right(self.at, max(end, middle + WINDOW_SECONDS))
        nearby = self.seconds[low:high] or self.seconds
        return statistics.median(nearby) / REFERENCE_SECONDS

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the reference host speed."""
        return (end - start) / self.slowdown(start, end)

    def idle_slowdown(self, count: int) -> List[float]:
        """``count`` probes back to back, as slowdowns: the host speed right
        now, around a single long unit (a set-up step) or between chunks of
        load that runs in another process, whose probes taken while it
        works would time the contention with it, not the host.
        """
        for _ in range(count):
            self.probe()
        return [seconds / REFERENCE_SECONDS for seconds in self.seconds[-count:]]

    def median_slowdown(self) -> float:
        return statistics.median(self.seconds) / REFERENCE_SECONDS
