"""Host-speed probe: a fixed pure-Python reference work, timed from a timer signal.

The 2-core Xeon host the benchmark's figures were measured on is shared: its
speed for the same Python code swings by up to 1.6x, over both tenths of
seconds and minutes, and process CPU time swings with it.  Wall-clock medians alone then spread by more
than any useful regression bound.  So while the queries run, a periodic timer
signal interrupts them to time a small reference work, and each query's time
(net of those interruptions) is scaled by ``REF_S`` over the median reference
time seen during it.  Reported times are thus seconds at the reference speed.
The reference work calls nothing in blockperm, so a change to the library
does not move it; the raw times are kept in the run record.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from array import array

#: the reference work's duration on a quiet core of the 2-core Xeon host
REF_S = 0.00017

#: seconds between reference samples
INTERVAL_S = 0.02

#: a query's samples are those within this many seconds of it, so that even
#: a short query has a few and one slow sample does not set its scale
PAD_S = 0.05

_rng = random.Random(0)
_PERMS = [tuple(_rng.sample(range(1, 9), 8)) for _ in range(100)]
_IDENTITY = frozenset(zip(range(1, 9), range(2, 10)))


def reference() -> float:
    """Seconds the reference work takes now.  It mixes the kinds of work in
    blockperm's inner loops: characteristic sets and set differences, a scan
    of adjacent labels, and modular arithmetic."""
    start = time.perf_counter()
    acc = 0
    for p in _PERMS:
        acc += len(frozenset(zip(p, p[1:])) - _IDENTITY)
        prev = p[0]
        for cur in p[1:]:
            if cur != prev + 1:
                acc += 1
            prev = cur
        acc = (acc * 31 + p[3]) % 1_000_003
    return time.perf_counter() - start


def reference_now(samples: int = 25) -> float:
    """Median of a burst of reference timings."""
    return statistics.median(reference() for _ in range(samples))


class SpeedProbe:
    """Samples the reference work every ``INTERVAL_S`` while it is entered."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.spent = 0.0  # seconds spent in the signal handler

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.took.append(reference())
        self.at.append(start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._tick(None, None)  # so that every later query has a sample before it
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median reference time from PAD_S before ``start`` to
        PAD_S after ``end``, or over the nearest earlier sample if none."""
        lo = bisect.bisect_left(self.at, start - PAD_S)
        hi = bisect.bisect_right(self.at, end + PAD_S)
        window = self.took[lo:hi] if hi > lo else self.took[max(lo - 1, 0):lo]
        return REF_S / statistics.median(window)
