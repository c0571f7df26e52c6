"""Item timing that is steady on a machine whose speed drifts.

On a shared host the same pure-Python loop can take anywhere from 1x to
2x its fastest time, in episodes lasting seconds to minutes, and CPU
time drifts with wall time (the host's contention is not reported as
steal). A raw median over one run then reflects the host's state more
than the program.

`SpeedMeter` times a fixed reference loop (`reference`) at both ends of
each item and every `PERIOD_S` of wall time inside it, from a SIGALRM
handler. That splits the item into segments, and each segment's time is
scaled by the reference loop's nominal duration over its measured one
(the mean of the samples at the segment's two ends). The sum is the
item's *normalised* time: seconds at the speed where the reference loop
takes `REF_NOMINAL_S`. The time spent in the reference loop itself is
excluded from both the raw and the normalised time.

A set-up probe runs in another process, so `measure_setup` in run.py
scales it with `sample` and `scale` from samples taken on either side.

A change to rowfin moves the normalised time as it moves the raw time;
a change in the host's speed moves the reference loop as well and so
cancels out.
"""

from __future__ import annotations

import signal
import time

# Reference loop duration at which normalised time equals raw time: a
# typical duration within runs on the baseline machine, so that scaled
# and raw times read about the same there (see README.md).
REF_NOMINAL_S = 0.0008

# Wall time between reference samples inside an item. A sample takes
# about REF_NOMINAL_S, so the meter adds about 3 % to a run's length.
PERIOD_S = 0.05


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def mul(self, other):
        return _Pair(self.a * other.a % 7, (self.b + other.b) % 7)


def reference() -> int:
    """Fixed pure-Python work of the kind rowfin does: integer arithmetic,
    small objects, method calls and dict stores.

    Its data stays within a few kilobytes, so its time does not depend on
    what the workload left in the caches; a reference loop over 2 MB of
    tables did, and so moved with the workload's memory footprint.
    """
    acc, x, recent = 0, _Pair(1, 2), {}
    for i in range(1000):
        acc += i * i % 7
        x = x.mul(_Pair(acc % 7, 3))
        recent[i & 63] = x
    return acc


def sample() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scale(seconds: float, ref_a: float, ref_b: float) -> float:
    """`seconds` at reference speed, given the samples on either side."""
    return seconds * 2 * REF_NOMINAL_S / (ref_a + ref_b)


class SpeedMeter:
    def __init__(self):
        self._busy = False
        self.samples = 0            # reference samples taken, for the notes
        reference()

    def _sample(self):
        t0 = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples += 1
        return end - t0, end

    def _cut(self):
        """Close the current segment at now and open the next one."""
        seg = time.perf_counter() - self._seg_start
        ref, end = self._sample()
        self._raw += seg
        self._norm += scale(seg, self._ref, ref)
        self._ref, self._seg_start = ref, end

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self._cut()
        finally:
            self._busy = False

    def time(self, fn):
        """Run `fn()`; return (its result, raw seconds, normalised seconds).

        If `fn` raises, the exception propagates and nothing is returned.
        """
        self._raw = self._norm = 0.0
        self._ref, self._seg_start = self._sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self._cut()
        return result, self._raw, self._norm
