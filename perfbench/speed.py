"""The machine's speed, measured while a run goes on.

The shared machine the benchmark was tuned on changes speed by 20-50 %
over minutes, and both of its vCPUs change alike.  Averaging within a
30 s run cannot remove that, so a run measures the machine as it goes:
every ``PERIOD_S`` seconds it interrupts itself and times a fixed slice
of pure-Python integer arithmetic that touches nothing of the program.
The machine's *slowness* over a stretch of time is the median time of
the slices taken in it (at least ``WINDOW`` of them, the nearest ones if
the stretch is short) over ``NOMINAL_S``.  Each timing is divided by the
slowness over the time it was taken, so it reads as on a machine where a
slice takes ``NOMINAL_S``.  The speed swings within seconds too, which is
why each timing gets the slowness of its own stretch, not the run's.  A
change to the program does not change the slice, so it shows in full.

Slices run in a SIGALRM handler, between two bytecodes of whatever the
program is doing.  Every timed region therefore reads ``clock()``:
``perf_counter`` less the time spent in slices.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.1
SLICE_STEPS = 20_000
# slice time on the machine the figures are scaled to: about that of the
# 2.1 GHz Xeon vCPU the benchmark was tuned on in its faster states
NOMINAL_S = 2e-3
WINDOW = 15  # fewest slices a slowness is taken over (1.5 s)


def _spin(steps: int) -> int:
    acc = 0
    for i in range(steps):
        acc = (acc * 31 + i) % 1_000_003
    return acc


class SpeedProbe:
    """Times a fixed slice every ``PERIOD_S`` seconds while started."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.starts: list[float] = []  # on clock()
        self.spent = 0.0
        self._previous = None

    def _slice(self, signum, frame) -> None:
        t0 = perf_counter()
        _spin(SLICE_STEPS)
        self.slices.append(perf_counter() - t0)
        self.starts.append(t0 - self.spent)
        self.spent += perf_counter() - t0

    def clock(self) -> float:
        """perf_counter less the time spent in slices so far."""
        while True:
            spent = self.spent
            now = perf_counter()
            if self.spent == spent:  # no slice ran between the two reads
                return now - spent

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def slowness(self, start: float | None = None, end: float | None = None) -> float:
        """Median slice time over NOMINAL_S (above 1: slower than nominal).

        Over the slices taken from ``start`` to ``end`` on ``clock()``, or
        the ``WINDOW`` nearest to its middle if fewer; over all without them.
        """
        if not self.slices:
            raise RuntimeError("the speed probe took no slices")
        if start is None or end is None:
            return statistics.median(self.slices) / NOMINAL_S
        window = min(WINDOW, len(self.slices))
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < window:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - window // 2, len(self.slices) - window))
            hi = lo + window
        return statistics.median(self.slices[lo:hi]) / NOMINAL_S
