"""How fast the CPU runs Python right now, sampled while a workload runs.

The benchmark host is a share of a busy machine: the same code runs up
to twice as slow for stretches of a fraction of a second to minutes, as
neighbours come and go.  A repetition's wall time mixes the program's
cost with that drift.  ``Pace`` separates them.  A timer signal fires
every ``PERIOD_S``; its handler runs the probe, a fixed piece of mixed
pure-Python work (rational arithmetic, a dict of tuple keys, a keyed
sort) that does not touch catsl2, on the CPU the workload runs on, and
records how long it took.  The speed of the machine over an interval is
the mean of ``REFERENCE_PROBE_S / probe time`` over the probes inside it
(the mean of speeds, since work done is time multiplied by speed).

``reference_seconds(t0, t1)`` is the time the interval would have taken
at reference speed: its wall time, less the time the probes took,
multiplied by that mean speed.  One reference second is the time in
which the probe runs ``1 / REFERENCE_PROBE_S`` times back to back.
REFERENCE_PROBE_S is the probe time on the 2 vCPU Intel Xeon host the
benchmark was written on, when it ran fast, so that reference seconds
there read close to wall seconds.

The probe's mix was chosen by how well it tracks the workloads.  Over
18 to 24 repetitions of one seed of query_session and rewrite_random,
whose raw wall times spread by 14-47% (quartile distance over median),
times corrected by this probe spread by 3.5-4.1%; the slope of log wall
time against log probe speed was 0.87-0.93, close to the 1 a perfect
tracker gives.  A tight integer loop, or random reads from a large dict,
corrected them only to 5-20%, with slopes of 0.9 to 1.8.  The probe
costs 1-2% of the wall time; that time is taken out of every interval
it falls in.
"""

from __future__ import annotations

import functools
import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
REFERENCE_PROBE_S = 2.5e-4

# the clock every process shares, so intervals may span a spawn
clock = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)


def _probe():
    """Mixed interpreter work: rationals, a dict of tuple keys, a keyed sort."""
    for _ in range(3):
        acc = Fraction(0)
        for i in range(1, 12):
            acc += Fraction(i, i + 1) * Fraction(1, i + 2)
        counts: dict = {}
        for i in range(120):
            key = (i % 11, i % 3)
            counts[key] = counts.get(key, 0) + i
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


class Pace:
    """Probe samples (start, duration) taken every PERIOD_S once started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame):
        # the collector stays off, so no collection the program's own
        # allocations are due lands inside the probe and is taken out
        collecting = gc.isenabled()
        gc.disable()
        began = clock()
        _probe()
        self.samples.append((began, clock() - began))
        if collecting:
            gc.enable()

    def start(self):
        for _ in range(20):         # let the interpreter specialise the loop
            _probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0, t1) -> float:
        """Mean speed over [t0, t1]; over all samples if none fell inside,
        and 1.0 if there are none at all."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        inside = inside or [d for _, d in self.samples]
        if not inside:
            return 1.0
        return sum(REFERENCE_PROBE_S / d for d in inside) / len(inside)

    def reference_seconds(self, t0, t1, window=0.0) -> float:
        """Reference seconds of [t0, t1], less the probes that ran inside.

        ``window`` widens the interval the speed is taken over, on both
        sides, for intervals too short to hold enough probes."""
        busy = sum(d for t, d in self.samples if t0 <= t <= t1)
        return (t1 - t0 - busy) * self.speed(t0 - window, t1 + window)
