"""Times corrected for the speed the machine runs at, moment by moment.

On a shared host the same computation can take up to twice as long, in
stretches from under a second to tens of seconds, whoever else runs on the
machine.  A
``Speedometer`` runs a small fixed probe computation from a timer signal
every ``PERIOD_S`` seconds, in the benchmark's own thread, and records how
long each probe took.  The calibrated duration of an interval is its time
without the probes, with each stretch between two probes scaled by
``PROBE_REF_S`` over the time of the probe that ends it: seconds at the
speed at which the probe takes ``PROBE_REF_S``.  A faster program lowers
calibrated times as it lowers raw times; a slower host does not.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

PERIOD_S = 0.025  # the host's speed changes within a second
# probe time at the reference speed: about the probe's median time, inside
# the workloads, on the 2-core x86_64 host (Python 3.11) the benchmark was
# tuned on
PROBE_REF_S = 6e-4
P = 32003


def probe() -> int:
    """A fixed small computation in the library's idiom: a sparse product of
    dict polynomials with tuple exponents and prime-field coefficients."""
    a = {(i % 3, i % 5, i // 5): i * 7 + 1 for i in range(24)}
    b = {(i % 2, i // 4, i % 3): i * 3 + 2 for i in range(16)}
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = (out.get(m, 0) + ca * cb) % P
    return len(out)


class Speedometer:
    """Probes the machine's speed while the benchmark runs (a context manager)."""

    def __init__(self):
        self.ends: list[float] = []  # perf_counter when each probe ended
        self.durs: list[float] = []
        self.probe_total = 0.0
        self._previous = None

    def _tick(self, *_):
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        self.ends.append(t1)
        self.durs.append(t1 - t0)
        self.probe_total += t1 - t0

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return False

    def mark(self) -> tuple[float, float]:
        """A point in time, for ``calibrated``; retried if a probe ran
        between reading the clock and reading the probe total."""
        while True:
            total = self.probe_total
            now = perf_counter()
            if total == self.probe_total:
                return now, total

    def raw(self, start, end) -> float:
        """Seconds between two marks, without the probes."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def _scale(self, i: int) -> float:
        """Reference over measured speed for the stretch that probe i ends."""
        return PROBE_REF_S / self.durs[min(i, len(self.durs) - 1)]

    def calibrated(self, start, end) -> float:
        """Seconds between two marks at the reference speed.  While the
        speedometer runs, the stretch after the last probe is scaled by the
        last probe."""
        t0, t1 = start[0], end[0]
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        if lo == hi:  # no probe inside: the probe that ends this stretch
            return self.raw(start, end) * self._scale(lo)
        total = 0.0
        prev = t0
        for i in range(lo, hi):
            # the stretch up to probe i ends where probe i started
            total += (self.ends[i] - self.durs[i] - prev) * self._scale(i)
            prev = self.ends[i]
        total += (t1 - prev) * self._scale(hi)
        return total
