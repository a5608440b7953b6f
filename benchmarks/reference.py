"""Machine speed, measured by a fixed reference kernel run between queries.

The benchmark's times drift with the speed of the machine they run on: on
a shared 2-core virtual machine the same code runs up to 1.6 times slower
from one second to the next, and whole runs differ by up to 1.8 times,
although the process is never descheduled (its CPU time equals its wall
time, so CPU-time clocks do not help).  The reference kernel is plain Python in the style of the library
(Fraction and small-integer arithmetic, tuples, dicts, small objects) and
calls no library code, so a change to masure cannot move it.

``Reference.keep_up`` runs kernel units between queries, until they have
taken a fixed share of the query time, and records when each ran and how
long it took.  ``Reference.factors`` then gives, for each timed span, the
factor that turns its measured seconds into seconds at the nominal speed
(at which one unit takes ``NOMINAL_UNIT_S``), from the units run within
``MARGIN_S`` of it.  ``Reference.around`` runs units right before and after
one task, for a span that is not surrounded by queries.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import time
from array import array
from fractions import Fraction

NOMINAL_UNIT_S = 0.005   # one kernel unit at the nominal speed
SHARE = 0.25             # kernel time per second of query time
MARGIN_S = 0.1           # units this close to a span measure its speed


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def kernel_unit() -> int:
    """One unit of reference work; returns a checksum that never changes."""
    total = 0
    for r in range(8):
        acc = Fraction(r)
        table: dict = {}
        cells = []
        for i in range(1, 90):
            acc += Fraction(i % 7 + 1, i + 2)
            v = tuple(x * i - r for x in (1, 2, 3, i % 5))
            key = (v[3], i % 11)
            table[key] = table.get(key, 0) + acc.numerator % 101
            cells.append(_Cell(key, sum(v)))
        cells.sort(key=lambda c: (c.key, -c.value))
        total += sum(table.values()) + sum(c.value for c in cells[::3]) + acc.denominator % 97
    return total


CHECKSUM = 116763  # kernel_unit(); a constant, so importing this module runs no unit


class Reference:
    def __init__(self):
        self.starts = array("d")   # perf_counter at the start of each unit
        self.times = array("d")    # seconds each unit took
        self.busy = 0.0

    def step(self) -> None:
        # With the collector off, a collection the library's garbage is due
        # falls in the next query, not in the unit, and cannot speed it up.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            value = kernel_unit()
            dt = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        if value != CHECKSUM:
            raise RuntimeError("the reference kernel changed its result")
        self.starts.append(start)
        self.times.append(dt)
        self.busy += dt

    def keep_up(self, busy: float) -> None:
        """Run units until they have taken SHARE of ``busy`` seconds."""
        while self.busy < SHARE * busy:
            self.step()

    def around(self, task, units: int = 2):
        """``task()``, the seconds it took, and the factor from those to
        seconds at the nominal speed, from ``units`` units on either side."""
        first = len(self.times)
        for _ in range(units):
            self.step()
        start = time.perf_counter()
        value = task()
        seconds = time.perf_counter() - start
        for _ in range(units):
            self.step()
        return value, seconds, NOMINAL_UNIT_S * 2 * units / sum(self.times[first:])

    def factors(self, starts, durations) -> list[float]:
        """For each span (start, duration), in time order, the factor from
        its measured seconds to seconds at the nominal speed: from the units
        that started within MARGIN_S of it, or the nearest unit if none did."""
        if not self.times:
            self.step()
        total = [0.0, *itertools.accumulate(self.times)]
        out = []
        for start, dt in zip(starts, durations):
            lo = bisect.bisect_left(self.starts, start - MARGIN_S)
            hi = bisect.bisect_right(self.starts, start + dt + MARGIN_S)
            if lo == hi:
                lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
            out.append(NOMINAL_UNIT_S * (hi - lo) / (total[hi] - total[lo]))
        return out
