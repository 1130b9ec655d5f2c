"""Reference-second clock for a shared, drifting host.

The speed of a shared host drifts by tens of percent within seconds, which
would swamp the differences a benchmark is meant to show.  While a ``Clock``
is open, SIGALRM interrupts the process every ``PERIOD_S`` and runs a fixed
pure-Python loop, recording when it started and how long it took.  A timed
interval is converted to reference seconds: its wall time, minus the loops
that ran inside it, scaled by ``REF_S`` over the median loop time around
it.  One reference second is a wall second on a host where the loop takes
``REF_S``; on a host running at half speed the same work reports the same
reference time.

The loop runs in the main thread between bytecodes (no thread is started),
and children started while the clock is open do not inherit the timer.

The loop only tracks the CPU it runs on: the two vCPUs of a shared host
drift independently, and a clock on one does not track a child on the
other.  ``run.py`` therefore pins itself, and with it every child, to one
CPU.  A loop that runs while a child runs then delays the child as much as
it delays the work of this process, so it is subtracted from both.
"""

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
#: duration of one calibration loop that defines the reference second
REF_S = 0.0003
#: loops from this long before an interval also count towards its speed,
#: so that short intervals are not scaled by one jittery loop
LOOKBACK_S = 0.1


def _loop():
    x = 1
    for i in range(1500):
        x = (x * 48271 + i) % 2147483647
    return x


class Clock:
    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum=None, frame=None):
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t0 = time.perf_counter()
            _loop()
            self.durations.append(time.perf_counter() - t0)
            self.starts.append(t0)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def reference(self, t0, t1):
        """Reference seconds of the wall interval [t0, t1], which has just
        ended, of work in this process or in a child on the same CPU."""
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._tick()
            lo = bisect.bisect_left(self.starts, t0 - LOOKBACK_S)
            starts, durations = self.starts[lo:], self.durations[lo:]
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        inside = sum(d for s, d in zip(starts, durations)
                     if s >= t0 and s + d <= t1)
        return (t1 - t0 - inside) * REF_S / statistics.median(durations)

    def median_loop_s(self):
        return statistics.median(self.durations)
