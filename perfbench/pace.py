"""The host's pace, for reporting times at one fixed pace.

A shared host does not run at one speed: on a 2-vCPU VM the same
pure-Python Fraction loop took about 13 ms for minutes and then about
30 ms for ten or twenty seconds, in CPU time as much as in wall time, so
nothing inside the guest accounts for it.  A run
that happens to meet such a spell reads slower by that factor although the
engine did the same work.  The benchmark therefore times a fixed Fraction
loop (``sample``) between operations, at least every ``EVERY_S`` seconds,
and reports each time scaled to the pace at which that loop takes
``NOMINAL_MS``:

    reported = measured * NOMINAL_MS / pace

where ``pace`` is the mean of the samples taken just before and just after
the timed stretch.  The loop uses only the standard library, so no change
to the engine can move it.  The unscaled figures are printed with the
provenance of every run.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: ms that one sample takes, in round figures, on a 2-vCPU x86-64 VM with
#: CPython 3.11 outside a slow spell
NOMINAL_MS = 0.5
#: longest stretch of operations between two samples
EVERY_S = 0.1


def sample() -> float:
    """ms of the fastest of five runs of a fixed Fraction loop: the pace now."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(i, i + 7)
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two samples to the nominal pace."""
    return NOMINAL_MS / ((before + after) / 2.0)
