"""The calibration kernel that defines one calibration unit (cu).

The virtual CPU this benchmark runs on changes speed over minutes, and
wall time and CPU time move together, so raw seconds drift between runs
of unchanged code.  Each task time is divided by the time of this fixed
pure-Python loop, measured right before and after the tasks it brackets.
The loop does integer arithmetic and dict lookups only: it imports
nothing from aggsem and allocates no containers, so neither the cyclic
garbage collector nor the program's heap changes its speed.
"""

from __future__ import annotations

from time import perf_counter

_TABLE = {i: (i * 7919 + 13) % 1009 for i in range(1024)}
_ITERATIONS = 20_000


def _kernel() -> int:
    table = _TABLE
    acc = 0
    for i in range(_ITERATIONS):
        acc = (acc * 31 + table[(i ^ acc) & 1023]) % 1_000_003
    return acc


def reading() -> tuple[float, float]:
    """One timed pass of the kernel: (the moment it was taken, its seconds)."""
    start = perf_counter()
    _kernel()
    end = perf_counter()
    return (start + end) / 2, end - start
