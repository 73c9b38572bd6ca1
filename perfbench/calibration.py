"""Machine-speed calibration for the benchmark's time metrics.

On a shared machine the CPU speed a process gets drifts by tens of
percent within a minute, far more than the changes the benchmark must
resolve.  :func:`calibrate` times a fixed pure-Python job that never
calls ``repro`` (small objects, a dict and a heap: the operations the
router's search spends its time on).  A time measured next to it is
reported at nominal speed, ``seconds * NOMINAL_S / calibration``: the
drift cancels, while a change to ``repro`` still shows in full, since
the job does not run any of its code.

The job is timed in thread CPU seconds, so it measures the speed the
calling thread gets, not how long it waited to be scheduled.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Median :func:`calibrate` result on the baseline machine (2-core
#: x86-64 container, Python 3.11.7).  Fixed: changing it rescales every
#: reported time.
NOMINAL_S = 0.004


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y


def calibrate() -> float:
    """Thread CPU seconds of one run of the fixed calibration job.

    The cyclic garbage collector is paused meanwhile: a collection
    would cost time in proportion to everything the process holds,
    which would tie the calibration to the program's memory footprint.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        began = time.thread_time()
        heap: list = []
        seen: dict = {}
        for i in range(3000):
            point = _Point(i % 97, i % 89)
            key = (point.x, point.y)
            if key not in seen:
                seen[key] = i
            heapq.heappush(heap, (float(i * 7 % 1013), i, point))
            if len(heap) > 64:
                heapq.heappop(heap)
        return time.thread_time() - began
    finally:
        if paused:
            gc.enable()


def speed_factor(samples: list[float]) -> float:
    """The factor that turns seconds measured alongside *samples* into nominal seconds."""
    return NOMINAL_S / statistics.median(samples)
