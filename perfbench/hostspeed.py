"""Timings corrected for the machine's speed at the moment they were taken.

On a shared host the speed of single-threaded code drifts by tens of percent
within seconds and between runs minutes apart, so two runs of the same
program differ more than a real change would. While a ``Meter`` times a call,
an interval timer interrupts it every ``REF_EVERY_S`` seconds, and the signal
handler times one pass of a fixed reference loop that never calls the
program. The handler's time is taken off the call's time, and the call's
time is scaled by how fast the reference ran meanwhile:

    normalised = (wall - handler time) * REFERENCE_S / mean(reference times)

The samples are evenly spaced in time, so their mean weighs slow spells as
the call's own time does.

A normalised time is what the call would take on a machine that runs the
reference loop in ``REFERENCE_S`` (the 2-core Xeon host the bounds were set
on runs it in about that when idle). A change to the program moves it just
as it moves the raw time; a change in the machine's speed moves both the
program and the reference, and cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 4e-4  # reference loop time that normalised timings are scaled to
REF_EVERY_S = 0.02  # interval between reference samples during a call
REF_MIN = 5  # samples per call; a short call is followed by the missing ones

_rng = np.random.default_rng(20250314)
_REF_SLOTS = _rng.integers(0, 4096, 12_288).tolist()


def reference_loop() -> int:
    """Fixed work shaped like the program's hot loops: a Python loop that
    reads and bumps small counters in a list."""
    row = [0] * 4096
    for i in _REF_SLOTS:
        v = row[i]
        row[i] = v + 1 if v < 255 else 0
    return row[0]


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Meter:
    """Times calls of program work while sampling the machine's speed."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.ref_s: list[float] = []

    def __call__(self, fn, *args):
        """Call ``fn(*args)``, add its time to ``raw_s`` and return its result."""
        handled = []  # (start, duration) of each handler run

        def on_alarm(_signum, _frame):
            start = time.perf_counter()
            self.ref_s.append(_time_reference())
            handled.append((start, time.perf_counter() - start))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S / 2, REF_EVERY_S)
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        # A handler run that was pending when the timer stopped starts after
        # ``end`` and is no part of the call's time.
        self.raw_s += end - t0 - sum(d for start, d in handled if start < end)
        while len(self.ref_s) < REF_MIN:
            self.ref_s.append(_time_reference())
        return out

    @property
    def speed(self) -> float:
        """Mean reference time over ``REFERENCE_S``: 2 means half speed."""
        return statistics.fmean(self.ref_s) / REFERENCE_S

    @property
    def seconds(self) -> float:
        """The program's time, normalised to the reference speed."""
        return self.raw_s / self.speed
