"""Core speed, measured next to every timed operation.

On a shared host the speed at which one vCPU runs pure Python is not
steady.  On the 2-vCPU VM this benchmark was built on, a fixed loop
switched between two speeds about 1.8x apart every few seconds, with no
steal time reported and CPU time tracking wall time, and the share of
time at each speed changed from one minute to the next.  Every timing of
a run then follows that share more than the program.

So right before every timed operation, and once after the last, the
benchmark runs a fixed pure-Python probe, and scales each operation's
wall time by ``REFERENCE_S`` over the mean of the probe times just
before and just after it.  A time so scaled reads as the time on a core
that runs the probe in ``REFERENCE_S``; the run record keeps the
unscaled figures and the probe times next to it.  A change to the
program moves the operation's time and not the probe's, so it shows in
full.
"""

from __future__ import annotations

import time
from typing import List

clock = time.perf_counter

#: Probe time on an uncontended core of the VM the bounds were set on.
REFERENCE_S = 0.00006
#: Probe runs per reading; the fastest counts, so an interrupt in one
#: run does not make the core look slow.
RUNS = 2


class _Reading:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def probe() -> float:
    """Wall time of a fixed mix of what the program does most: object
    creation, attribute and dict access, tuple building and a keyed sort."""
    start = clock()
    totals: dict = {}
    rows = []
    for index in range(150):
        reading = _Reading(index % 7, index)
        totals[reading.key] = totals.get(reading.key, 0) + reading.value
        rows.append((reading.value, reading.key))
    rows.sort(key=lambda row: row[1])
    return clock() - start


class Speedometer:
    """Probe readings of one episode, one before each timed op."""

    def __init__(self) -> None:
        self.readings: List[float] = []

    def tick(self) -> int:
        """Take a reading; returns its index."""
        self.readings.append(min(probe() for __ in range(RUNS)))
        return len(self.readings) - 1

    def scale(self, index: int) -> float:
        """Scale of the op timed between readings ``index`` and ``index + 1``."""
        return 2 * REFERENCE_S / (self.readings[index] + self.readings[index + 1])
