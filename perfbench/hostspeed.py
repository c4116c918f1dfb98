"""How fast the host runs right now, from a fixed reference computation.

On a shared VM the speed of the same code drifts, by up to 1.8x over
minutes and on every workload at once, through contention the guest cannot
see: CPU time moves with wall time. A run therefore times this reference
before and after every stage and set-up. The mean of the two samples around
an operation, divided by ``REFERENCE_S``, is that operation's host factor,
and ``run.py`` divides the operation's wall by it. The reference uses only
Python and numpy, never the chronolink package, so a change to the program
cannot move it: such a change moves the scaled metrics exactly as much as
the raw ones.

The reference has an interpreter-bound half (dict and list building) and an
array half (sort, unique, searchsorted). Contention slowed the first more
than the workloads and the second less; one sample is the geometric mean of
the two halves' walls, which tracked the workloads better than either half.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# About the median sample on the tuning host (a shared 2-vCPU Xeon VM); a
# constant, so that scaled times read as seconds on that host at that speed.
REFERENCE_S = 0.050

_KEYS = np.random.default_rng(0).integers(0, 1 << 20, 100_000)


def _interpreter() -> int:
    buckets = {}
    for i in range(150_000):
        buckets.setdefault(i % 977, []).append(i * 3)
    return sum(len(v) for v in buckets.values())


def _arrays() -> int:
    ordered = np.sort(_KEYS, kind="stable")
    return int(np.unique(_KEYS).size + np.searchsorted(ordered, _KEYS[:30_000]).sum())


class HostSpeed:
    """Reference samples of one run, the first taken when it is made."""

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self) -> float:
        # a collection of the garbage a stage left behind is not the host's speed
        gc.disable()
        try:
            t0 = time.perf_counter()
            _interpreter()
            t1 = time.perf_counter()
            _arrays()
            t2 = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append(math.sqrt((t1 - t0) * (t2 - t1)))
        return self.samples[-1]

    def after_operation(self) -> float:
        """Host factor of the operation that just ended: the mean of the samples
        just before and just after it, over ``REFERENCE_S``; above 1 on a slow
        host. Call it right after each timed operation."""
        before = self.samples[-1]
        return (before + self.sample()) / 2 / REFERENCE_S
