"""Host-speed probe: rescales timed phases to one fixed CPU speed.

On a shared VM the interpreter's speed is not a constant of the machine.
On the 2-vCPU host the numbers in ``README.md`` come from, a fixed
pure-Python loop ran either at full speed or about 1.6 times slower, and
switched between the two several times a second (a neighbour sharing the
physical core, or hypervisor steal).  A 2 s repetition therefore took
anywhere from 1.7 to 3.1 s, and the medians of two 15 s runs a few minutes
apart differed by up to 30 %, with the program doing exactly the same work.

:class:`SpeedProbe` samples the host's speed while a run is timed: an
interval timer (``SIGALRM``) runs a short fixed probe every
:data:`PERIOD` seconds and records how long it took.  A phase that took
``T`` wall seconds, with probe samples ``c_i`` taken during it, is
reported as ``T * mean(REFERENCE / c_i)``: the seconds it would have taken
on a host where the probe takes :data:`REFERENCE` seconds.  Wall time spent
while the core was contended is charged at the rate the probe saw, so the
neighbour's share drops out and the program's own cost stays.  The probe
mixes the operations the simulator spends its time on (integer arithmetic,
method calls on slotted objects, heap pushes and pops), so that it slows
down when the program does.

The probe adds about 0.5 % to a run.  It never touches the program's
state, and what it allocates it frees before it returns.
"""

import bisect
import heapq
import signal
import statistics
import time
from array import array

#: Seconds between probe samples.
PERIOD = 0.005
#: Probe time, in seconds, at the reference speed: the uncontended speed
#: of the host the numbers in ``README.md`` were measured on (the 5th
#: percentile of its probe samples).
REFERENCE = 18e-6
#: Fewest samples a phase is scaled by; a shorter phase borrows the
#: samples nearest to it.
MIN_SAMPLES = 8


class _Slot:
    __slots__ = ("total", "step_size")

    def __init__(self):
        self.total = 0
        self.step_size = 3

    def step(self, value):
        self.total = (self.total + value) & 0xFFFF
        return self.step_size


_SLOT = _Slot()


def probe():
    """The fixed unit of work whose duration measures the host's speed."""
    slot = _SLOT
    heap = []
    acc = 0
    for i in range(60):
        acc += (i * 7) & 15
        acc += slot.step(i)
    for i in range(24):
        heapq.heappush(heap, (i * 7919) % 101)
    while heap:
        acc += heapq.heappop(heap)
    return acc


class SpeedProbe:
    """Samples :func:`probe` on a timer while it is entered."""

    def __init__(self, period=PERIOD):
        self.period = period
        self.times = array("d")
        self.costs = array("d")
        self._previous = None
        self._sampling = False

    def _sample(self, signum, frame):
        # A signal that lands while a sample is being taken (the process
        # was descheduled for longer than a period) is dropped, so no probe
        # runs inside another one.
        if self._sampling:
            return
        self._sampling = True
        start = time.perf_counter()
        probe()
        self.costs.append(time.perf_counter() - start)
        self.times.append(start)
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _window(self, start, end):
        """Indices of the samples taken in ``[start, end)``, widened to the
        :data:`MIN_SAMPLES` nearest ones for a short phase."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_left(self.times, end)
        missing = MIN_SAMPLES - (high - low)
        if missing > 0:
            low = max(0, low - (missing + 1) // 2)
            high = min(len(self.times), low + MIN_SAMPLES)
            low = max(0, high - MIN_SAMPLES)
        return low, high

    def scaled(self, start, end):
        """Wall seconds ``end - start`` rescaled to the reference speed."""
        low, high = self._window(start, end)
        if low == high:
            raise RuntimeError("the speed probe took no samples")
        return (end - start) * statistics.fmean(
            REFERENCE / cost for cost in self.costs[low:high])

    def floor(self):
        """Probe time at this host's uncontended speed (5th percentile)."""
        return statistics.quantiles(self.costs, n=20)[0]
