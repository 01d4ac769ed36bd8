"""Host-speed reference for the timed awb benchmark run.

On a shared host the speed of a vCPU flips between levels about 1.5x
apart, in stretches from under a second to minutes. A whole run can fall
in a fast stretch, and then every time it measures reads faster, however
long the run. Times taken from different runs are only comparable once
that is taken out.

``HostSpeed`` samples the host's speed all through the run: a timer signal
(``SIGALRM``, every ``INTERVAL`` seconds) runs a fixed piece of pure-Python
work, the probe, and records how long it took and when. The probe does
the same kind of work as the program (small frozensets, tuples and dicts),
so it slows down and speeds up with it. ``scale(start, end)`` is the
factor that turns a time measured in ``[start, end]`` into the time it
would have taken on a host whose probe takes exactly ``REFERENCE_S``:
``REFERENCE_S`` over the mean probe time near that interval. The probe's
own time is subtracted from the call it interrupted (``stolen``).

The probe code is the benchmark's own and never changes with the program,
so a scaled time still moves one for one with the program's speed.
``scaled`` applies the factor to a (start, end, seconds) sample.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

INTERVAL = 0.05
# Median probe time inside a run on the reference machine (2 vCPUs,
# CPython 3.11.7) at its slower, more common speed level, so that scaled
# times read close to the times measured there.
REFERENCE_S = 0.00088
# A short call has no probe inside it; it takes the probes this close to it.
NEAR_S = 0.15
# A probe that a stall of the host hit reads many times too slow; probes
# slower than this multiple of the run's median probe are left out.
STALL = 2.0

_SETS = [frozenset(range(k, k + 5)) for k in range(12)]


def probe() -> int:
    acc = 0
    seen = {}
    for r in range(3):
        for a in _SETS:
            for b in _SETS:
                u = a | b
                key = (len(u), min(u), r)
                seen[key] = seen.get(key, 0) + 1
                acc += hash(u) & 7
    return acc + len(seen)


class HostSpeed:
    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.times: List[float] = []
        self.stolen = 0.0
        self._cap = float("inf")

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.stamps.append(start)
        self.times.append(end - start)
        self.stolen += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self.times:
            self._cap = STALL * statistics.median(self.times)

    def scale(self, start: float, end: float) -> float:
        """Factor from a time measured in ``[start, end]`` to reference speed."""
        lo = bisect.bisect_left(self.stamps, start - NEAR_S)
        hi = bisect.bisect_right(self.stamps, end + NEAR_S)
        near = [t for t in self.times[lo:hi] if t <= self._cap]
        if not near:
            k = min(bisect.bisect_left(self.stamps, start), len(self.stamps) - 1)
            near = [self.times[k]]
        return REFERENCE_S / statistics.fmean(near)

    def scaled(self, sample) -> float:
        """The seconds of a (start, end, seconds) sample at reference speed."""
        start, end, seconds = sample
        return seconds * self.scale(start, end)
