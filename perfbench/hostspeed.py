"""Host-speed reference: a fixed pure-Python load sampled through a repetition.

The shared host this benchmark runs on changes speed by up to 2x over tens
of seconds (both wall and CPU time of the same work move together), which
no median over one run can hide.  So every measured repetition also times
a fixed *reference unit* of interpreter work -- heap pushes and pops and
dict updates, the same kinds of operations the simulator's event loop
does -- every ``SAMPLE_EVERY_S`` of wall time, from a ``SIGALRM`` handler
in the one thread that runs the workload.  The unit shares the
workload's moment of host speed, so

    scaled seconds = measured seconds * REF_UNIT_S / mean(unit time)

reads as the time the repetition would have taken on a host where one
unit takes ``REF_UNIT_S``.  The handler's own time is subtracted from the
phase it interrupted before scaling.  A change to the program moves the
measured seconds and not the unit, so it moves the scaled seconds by the
same share.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List, Tuple

__all__ = ["REF_UNIT_S", "HostSpeed", "reference_unit"]

#: the unit's time on the reference host; close to an idle 2.1 GHz Xeon
#: core running CPython 3.11, so scaled seconds read like wall seconds there
REF_UNIT_S = 1.0e-3
SAMPLE_EVERY_S = 0.02


def reference_unit(n: int = 1500) -> int:
    heap: List[Tuple[int, int]] = []
    counts = {}
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        key = i & 127
        counts[key] = counts.get(key, 0) + 1
    total = 0
    while heap:
        total += heapq.heappop(heap)[0]
    return total + len(counts)


class HostSpeed:
    """Samples :func:`reference_unit` every ``SAMPLE_EVERY_S`` of wall time
    between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (start, duration)

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        reference_unit()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, begin: float, end: float) -> float:
        """Time the handler took out of the wall interval [begin, end)."""
        return sum(d for s, d in self.samples if begin <= s < end)

    def scale(self) -> float:
        """REF_UNIT_S over the mean unit time of every sample so far."""
        if not self.samples:
            raise RuntimeError("no host-speed samples were taken")
        return REF_UNIT_S / statistics.fmean(d for _s, d in self.samples)
