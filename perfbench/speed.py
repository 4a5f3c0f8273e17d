"""Normalize measured times by the machine's speed, sampled while they run.

On a shared virtual machine the same Python code can run up to 1.8x slower for
seconds to minutes at a time, because of load the guest cannot see; CPU time
slows by the same factor, so it does not help.  A run of a few tens of
seconds cannot average that out.  Instead, ``SpeedProbe`` interrupts the
program every ``INTERVAL_S`` (SIGALRM) and times a fixed snippet of work,
the probe.  A measured interval is then

* cleaned: the time the probes took inside it is subtracted, and
* normalized: multiplied by ``REFERENCE_S / mean probe time`` over the
  probes that started within ``WINDOW_S`` of it,

which gives the time the interval would have taken at the speed where the
probe takes ``REFERENCE_S``.  A change to the program changes the cleaned
time but not the probe, so the normalized time keeps it.

Different code slows by different factors here, so the probe is the snippet
whose time tracked the workloads' pass times best.  Candidates were tried on
a 2-vCPU Xeon VM: an integer loop with a dict, rational sums, a float loop,
sorting tuples, small NumPy ufuncs, big-integer multiply and reduce, and
lookups scattered over large lists and dicts.  Big-integer arithmetic
tracked both workloads best: its per-pass time
correlated with pass time at 0.91-0.98 on each (log scale), and dividing by
it halved the passes' coefficient of variation (0.13 to 0.06 on
enumerate-kuramoto, 0.19 to 0.06 on query-tables).  Sorting and NumPy ran
against enumerate-kuramoto (negative correlation).  A walk over a large
list came close (0.91-0.95) but would add tens of MB to the peak RSS.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

INTERVAL_S = 0.02
# The probe's time at the fastest speed seen on that VM (CPython 3.11):
# normalized times read as seconds there.
REFERENCE_S = 2.0e-4
# The speed of an interval is read from the probes this close to it: about
# 50 of them, plus those inside it.
WINDOW_S = 0.5

clock = time.perf_counter


def probe_work() -> int:
    """Fixed work: big-integer powers, products and remainders."""
    x = 3 ** 2000
    for _ in range(30):
        x = (x * 1234567891011) % (7 ** 1500)
    return x


class SpeedProbe:
    """Samples the probe's time while it is entered (a context manager).

    Only the main thread receives the signal; it runs the probe between two
    bytecodes, or when a call into native code returns.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []

    def _fire(self, signum, frame) -> None:
        start = clock()
        probe_work()
        self.times.append(clock() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds the probes took inside [t0, t1]."""
        lo, hi = self._between(t0, t1)
        return sum(self.times[lo:hi])

    def factor(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """REFERENCE_S over the mean time of the probes near [t0, t1].

        With no probe that near, the mean of all probes is used.
        """
        lo, hi = self._between(t0 - WINDOW_S, t1 + WINDOW_S)
        near = self.times[lo:hi] or self.times
        if not near:
            raise RuntimeError("no speed probe fired")
        return REFERENCE_S / statistics.fmean(near)

    def normalize(self, t0: float, t1: float) -> float:
        """The interval's time, probes taken out, at the reference speed."""
        return (t1 - t0 - self.busy(t0, t1)) * self.factor(t0, t1)
