"""Host speed reference: a fixed kernel timed next to the program.

The shared virtual machines this benchmark runs on change speed by tens
of percent from run to run (co-tenants on the same cores and caches,
clock frequency), and every host time of the program moves with them.
The benchmark therefore times a fixed kernel of its own -- not of the
program -- right before and right after every timed region, and reports
the program's host times scaled to the speed at which that kernel takes
:data:`NOMINAL_S`::

    scaled = measured * NOMINAL_S / mean(kernel time before, kernel time after)

The host's speed changes within a second under load, so only the two
kernel calls bracketing a region are used.

A change to the program moves its times and not the kernel's, so it
shows in full in the scaled figures; a slower or busier host moves both
and cancels.  The kernel mixes what the control plane spends its time
on: interpreted Python over a small dict, many small NumPy linear
algebra calls, and a walk in random order over Python objects spread
over a few megabytes.  (A streaming NumPy pass tracked the program's
slowdowns worst and is left out.)
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["NOMINAL_S", "HostReference"]

#: CPU seconds one kernel call takes at the reference speed (about its
#: median on a quiet 2-core x86-64 VM, Python 3.11, NumPy with one BLAS
#: thread).  Scaled times are host times at that speed.
NOMINAL_S = 0.002


class HostReference:
    """Times the reference kernel on demand and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20160101)
        self._matrix = rng.random((24, 24)) + 24.0 * np.eye(24)
        self._vector = rng.random(24)
        self._table = {i: float(i) * 0.5 for i in range(512)}
        self._objects = [[i, float(i), str(i)] for i in range(50_000)]
        order = rng.permutation(len(self._objects))[:6000]
        self._walk = [self._objects[i] for i in order]
        self.samples: list[float] = []

    def _kernel(self) -> float:
        table = self._table
        total = 0.0
        for i in range(5000):
            total += table[(i * 7) & 511]
        rows = [total]
        for _ in range(35):
            rows.append(float(np.linalg.solve(self._matrix, self._vector)[0]))
        for item in self._walk:
            total += item[1]
        rows.append(total)
        return sum(rows)

    def sample(self) -> float:
        """Time one kernel call in CPU seconds; record and return it."""
        start = time.process_time()
        self._kernel()
        elapsed = time.process_time() - start
        self.samples.append(elapsed)
        return elapsed

    def scaled(self, seconds: float, index: int) -> float:
        """``seconds`` measured between ``samples[index]`` and
        ``samples[index + 1]``, taken to the reference speed by the mean
        of those two kernel times."""
        around = 0.5 * (self.samples[index] + self.samples[index + 1])
        return seconds * NOMINAL_S / around
