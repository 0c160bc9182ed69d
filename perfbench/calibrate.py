"""Host speed reference for scaling wall times.

Usage: python perfbench/calibrate.py               (stops on SIGTERM or when
                                                    its parent exits)
       python perfbench/calibrate.py --on-demand   (stops at end of input)

On a host shared with other tenants, CPU speed can drift by up to 2x for
seconds to minutes at a time, and each CPU drifts on its own; CPU time
drifts with wall time.  A sampler process times a short fixed task
(exact rational arithmetic and dict churn, standard library only) and
prints ``<CLOCK_MONOTONIC ns> <ms>`` per reading.  run.py scales each
wall time by the readings taken around it, to a host where the task
takes ``NOMINAL_MS``.

- Free-running, the sampler takes a reading every ``INTERVAL_S``.  It
  serves work that cannot pause: cold ``verify all`` requests and set-up.
- ``--on-demand``, it takes one reading per byte read from stdin.  A
  session child starts it on its own CPU and asks for a reading between
  requests, so the readings see the speed of the CPU the requests ran on
  and take no time from them.

Either way the readings come from a process that never imports
``noncrossing``, so the library's heap size, garbage collections and
allocator state do not land in them.  A reading is the fastest of three
back-to-back runs of the task: the first run after a pause pays for
waking the CPU.  Raw times and every reading go to the run record.
"""

from __future__ import annotations

import bisect
import os
import signal
import sys
import time
from fractions import Fraction

NOMINAL_MS = 1.5  # the task's time at the fast end of the baseline host
INTERVAL_S = 0.1  # one reading per interval
PAD_NS = 500_000_000  # readings this close to an interval also count for it


def _task():
    x = Fraction(0)
    for k in range(1, 100):
        x += Fraction((-1) ** k, k)
        x = x * Fraction(k + 1, k + 2)
    counts: dict = {}
    for i in range(5000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return x, counts


def task_ms() -> float:
    """Wall time of one run of the reference task."""
    start = time.perf_counter_ns()
    _task()
    return (time.perf_counter_ns() - start) / 1e6


def factor(readings) -> float:
    """Factor that maps a wall time taken during ``readings`` to nominal speed.

    Work done per wall second is proportional to 1 / reading, so the
    factor averages ``NOMINAL_MS / reading``; ``NOMINAL_MS / mean(readings)``
    would over-correct whenever the speed changes within the interval.
    """
    return sum(NOMINAL_MS / r for r in readings) / len(readings)


class Readings:
    """The sampler's readings, looked up by time."""

    def __init__(self, pairs):
        pairs = sorted(pairs)
        self.times = [t for t, _ in pairs]
        self.ms = [ms for _, ms in pairs]

    def between(self, start_ns: int, end_ns: int) -> list[float]:
        """Readings from ``PAD_NS`` before ``start_ns`` to ``PAD_NS`` after
        ``end_ns``, or the nearest one if none lies there."""
        if not self.ms:
            raise ValueError("the speed sampler took no readings")
        lo = bisect.bisect_left(self.times, start_ns - PAD_NS)
        hi = bisect.bisect_right(self.times, end_ns + PAD_NS)
        if lo < hi:
            return self.ms[lo:hi]
        near = min(max(lo, 0), len(self.ms) - 1)
        if near > 0 and start_ns - self.times[near - 1] < self.times[near] - end_ns:
            near -= 1
        return [self.ms[near]]

    def factor(self, start_ns: int, end_ns: int) -> float:
        return factor(self.between(start_ns, end_ns))


def reading() -> str:
    t = time.monotonic_ns()
    return f"{t} {min(task_ms() for _ in range(3))}\n"


def main(argv) -> None:
    if argv[1:] == ["--on-demand"]:
        while sys.stdin.buffer.read(1):
            sys.stdout.write(reading())
            sys.stdout.flush()
        return
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(INTERVAL_S)
        sys.stdout.write(reading())
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv)
