"""Machine-speed sampling, so that timings survive a host whose speed drifts.

The reference machine is a shared two-core host.  Its speed drifts: a fixed
pure-Python loop takes anywhere from 0.13 to 0.28 s within one minute, and
its mean over half-minute windows spreads by 15% (interquartile range over
median).  CPU time tracks wall time, so the slowdown is invisible to the
process and no other clock removes it.

``Sampler`` runs a fixed probe, a short dict-and-integer loop that calls
nothing of hyperind, from a SIGALRM handler every ``INTERVAL_S`` seconds
while it is active.  The probe interrupts whatever hyperind is doing, so the
samples cover every stretch of the timed passes, long items included.
``Sampler.scaled(t0, t1)`` turns a measured interval into seconds at the
reference speed: the interval minus the probe time spent inside it, times the
mean speed of the probes inside it (``PROBE_REF_S`` over each probe's time).
An interval too short to hold a probe takes the speed of the probes on either
side of it.  A change to hyperind moves the interval and not the probes, so
it shows in full in the scaled time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Seconds between probes.
INTERVAL_S = 0.1
#: Iterations of the probe loop: about 4 ms on the reference machine.
PROBE_ITERATIONS = 16_000
#: Typical probe time on the reference machine (a two-core Xeon), so that a
#: scaled time there reads close to its wall time.
PROBE_REF_S = 0.004


def probe() -> float:
    """Seconds taken by the fixed probe loop."""
    clock = time.perf_counter
    t0 = clock()
    table: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        k = i * 2654435761 & 4095
        table[k] = table.get(k, 0) + 1
    return clock() - t0


class Sampler:
    """Probe the machine's speed every INTERVAL_S seconds inside a ``with``
    block, and scale intervals measured in it to the reference speed."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at each probe's start
        self.times: list[float] = []  # each probe's seconds

    def _sample(self, _signum, _frame) -> None:
        self.starts.append(time.perf_counter())
        self.times.append(probe())

    def __enter__(self) -> Sampler:
        self._sample(None, None)  # so that every interval has a probe near it
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def net(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 less the probe time spent between them."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.times[i:j])

    def scaled(self, t0: float, t1: float) -> float:
        """Net seconds from t0 to t1 at the reference speed."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        near = self.times[i:j] or self.times[max(i - 1, 0):i + 1]
        speed = statistics.fmean(PROBE_REF_S / p for p in near)
        return self.net(t0, t1) * speed
