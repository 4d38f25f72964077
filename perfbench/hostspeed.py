"""Host-speed calibration: timings reported at a nominal host speed.

On a shared host the same work can take twice as long from one minute
to the next, because other tenants load the machine. To keep runs
comparable, a run samples a fixed calibration kernel every
:data:`SAMPLE_EVERY_NS` of its timed window, outside any timed request,
and scales each timing by ``NOMINAL_NS / kernel time`` measured next to
it. The kernel does what the library spends its time on — small numpy
reductions, dict updates and float arithmetic in interpreted loops — so
it slows down with the host, while a change in the library's own speed
leaves it untouched and passes through the scaling unchanged.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

__all__ = [
    "NOMINAL_NS", "SAMPLE_EVERY_NS", "AROUND_SETUP", "kernel", "SpeedProbe",
]

#: Kernel time that defines the nominal host speed (close to its time
#: on a lightly loaded 2-vCPU Xeon VM).
NOMINAL_NS = 600_000
#: Minimum gap between two calibration samples in a timed window.
SAMPLE_EVERY_NS = 50_000_000
#: Samples nearest in time that one request's speed is the median of.
NEIGHBOURS = 9
#: Samples taken on each side of a set-up, which cannot be interrupted.
AROUND_SETUP = 5

_VECTOR = np.arange(64, dtype=np.float64)


def kernel() -> float:
    """The fixed calibration work (about 0.6 ms at nominal speed)."""
    total = 0.0
    table: dict[int, float] = {}
    for i in range(300):
        table[i % 17] = _VECTOR[i % 64] + total
        total += float(_VECTOR[: i % 8 + 1].sum())
    return total + len(table)


class SpeedProbe:
    """Kernel timings taken during a run, and the scale they imply."""

    def __init__(self, clock=time.perf_counter_ns, work=kernel) -> None:
        self._clock = clock
        self._work = work
        self.times: list[int] = []
        self.durations: list[int] = []
        self._last = None

    def sample(self, times: int = 1) -> None:
        """Time the kernel *times* times in a row."""
        for _ in range(times):
            started = self._clock()
            self._work()
            ended = self._clock()
            self.times.append((started + ended) // 2)
            self.durations.append(ended - started)
        self._last = ended

    def maybe_sample(self) -> None:
        """Time the kernel if :data:`SAMPLE_EVERY_NS` have passed."""
        if self._last is None or self._clock() - self._last >= SAMPLE_EVERY_NS:
            self.sample()

    def scale_at(self, when_ns: int) -> float:
        """``NOMINAL_NS`` over the median of the samples nearest *when_ns*.

        Multiply a time measured at *when_ns* by this to get it at
        nominal host speed.
        """
        if not self.times:
            raise ValueError("no calibration samples")
        middle = bisect.bisect(self.times, when_ns)
        low = max(0, min(middle - NEIGHBOURS // 2, len(self.times) - NEIGHBOURS))
        nearest = self.durations[low:low + NEIGHBOURS]
        return NOMINAL_NS / statistics.median(nearest)

    def scale(self) -> float:
        """``NOMINAL_NS`` over the median of every sample of the run."""
        if not self.durations:
            raise ValueError("no calibration samples")
        return NOMINAL_NS / statistics.median(self.durations)

    def mean_scale(self, start_ns: int, end_ns: int) -> float:
        """Time-weighted mean of :meth:`scale_at` over a window.

        A duration or CPU time spent over the whole window, multiplied
        by this, is at nominal host speed.
        """
        inside = [t for t in self.times if start_ns < t < end_ns]
        edges = [start_ns, *inside, end_ns]
        weighted = sum(
            (b - a) * self.scale_at((a + b) // 2)
            for a, b in zip(edges, edges[1:])
        )
        return weighted / (end_ns - start_ns)
