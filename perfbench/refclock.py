"""A fixed task whose run time tracks the speed of the host.

The benchmark runs it between commands and scales every measured time by
``NOMINAL_S / (its measured time)``.  On a shared host the same command can
run 15-25% slower for tens of seconds at a stretch; the reference task slows
down with it, so the scaled times stay comparable across runs.  The task is
the benchmark's own exact big-integer arithmetic (the Raney products of
``streams.exact_a``), which follows the program's own slowdowns more closely
than a small Fraction loop does, and it runs no fussdeform code, so a change
to the program cannot move it.
"""

from fractions import Fraction
from time import perf_counter

from streams import exact_a

NOMINAL_S = 0.0013  # its typical time between commands on a shared 2-vCPU Xeon host


def reference_time() -> float:
    """Seconds taken by one pass of the task: a_0..a_45 at (p, t) = (29/11, 7/5)."""
    start = perf_counter()
    exact_a(Fraction(29, 11), Fraction(7, 5), 45)
    return perf_counter() - start
