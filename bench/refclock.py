"""CPU time corrected for the speed of a shared host.

On a shared host the same pure-Python loop runs up to 30% slower for
seconds to minutes at a time, and the process's CPU time slows with it,
so neither wall time nor CPU time of one run is comparable with another.
:class:`RefClock` samples the host's speed while the workload runs: a timer
that fires after every ``INTERVAL_S`` of the process's CPU time runs a
fixed reference loop and records the thread CPU time it took.  A span of
the workload's own CPU time (the ticks' time left out) is then scaled by
``REFERENCE_S`` times the mean inverse reference time of the ticks in and
around it, that is, by the work the host could do per second while it
ran.  The host's speed changes within a tenth of a second, so each checked
call is scaled by its own ticks, not by an average over the run.  The result
reads as seconds on a host that runs the reference loop in
``REFERENCE_S``.

Thread CPU time is used throughout: the process CPU clock loses its
precision while a process CPU timer is armed, and the benchmark runs one
thread.
"""

from __future__ import annotations

import array
import bisect
import signal
import statistics
import time

# the unit of scaled times: seconds on a host that runs one reference loop in
# this long; any fixed value would do, as only ratios between runs are compared
REFERENCE_S = 300e-6
INTERVAL_S = 0.01
# ticks this far outside a span still count for it, so a span shorter than a
# tick interval is scaled by the speed around it
WINDOW_S = 2 * INTERVAL_S

_KEYS = tuple(range(64))


def reference_loop() -> None:
    """A fixed piece of dict and integer work, about 0.3 ms of CPU."""
    d = dict.fromkeys(_KEYS, 0)
    for _ in range(40):
        for k in _KEYS:
            d[k] += k


def speed_scale(samples) -> float:
    """Factor from this host's CPU seconds to reference seconds."""
    return REFERENCE_S * statistics.fmean(1 / s for s in samples)


def sample_now(count: int = 20) -> list[float]:
    """Reference times of ``count`` back-to-back loops, after one warm-up loop."""
    reference_loop()
    samples = []
    for _ in range(count):
        start = time.thread_time()
        reference_loop()
        samples.append(time.thread_time() - start)
    return samples


class RefClock:
    """Workload CPU time and host-speed samples, while entered.

    ``with RefClock() as clock:`` arms the timer.  :meth:`now` is the
    thread's CPU time minus the ticks' own; each tick is stamped with it.
    :meth:`scale` gives the speed factor for a span of that time.
    """

    def __init__(self) -> None:
        self.stamps = array.array("d")
        self.samples = array.array("d")
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that fell inside another is dropped
            return
        self._busy = True
        start = time.thread_time()
        reference_loop()
        end = time.thread_time()
        self.stamps.append(start - self.spent)
        self.samples.append(end - start)
        self.spent += time.thread_time() - start
        self._busy = False

    def __enter__(self) -> RefClock:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def now(self) -> float:
        while True:  # a tick between the two reads would be counted as work
            spent = self.spent
            t = time.thread_time()
            if spent == self.spent:
                return t - spent

    def scale(self, start: float, end: float) -> float:
        """Speed factor over the span from ``start`` to ``end`` of :meth:`now`,
        from the ticks within it or ``WINDOW_S`` either side of it; from all
        ticks so far if there are none there."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        return speed_scale(self.samples[lo:hi] or self.samples or sample_now())
