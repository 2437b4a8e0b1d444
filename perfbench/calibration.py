"""Speed of the machine while a run measures, from a fixed kernel.

The benchmark's times move with the host: on a shared two-vCPU VM the
same q_density loop ran at 25-42 ms per curve from one 15 s window to the
next, with CPU time equal to wall time.  A fixed kernel that shares no
code with the program - a scipy special function over a large array, an
exponential matrix-vector product and a pure Python loop, the three kinds
of work the program does - is timed between operations.  Its times move
with the host too: in a 160 s test with the two interleaved, the ratio
of program time to kernel time varied 2.5-4x less between 20 s windows
than program time alone (coefficient of variation 1 % against 4.4 % for
low-drift curves, 2.6 % against 6.6 % for high-drift points).

Timings are reported in reference seconds: wall seconds times
REFERENCE_S / (median kernel time of the run).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import special as sp

# median kernel time on the machine the reference figures come from
REFERENCE_S = 0.025
# seconds of operations between two kernel samples
EVERY_S = 0.25


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((200, 3000))
        self._u = rng.random(3000)
        self._v = rng.random(400)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns the seconds it took."""
        t0 = time.perf_counter()
        sp.erfcx(self._a).sum()
        (np.exp(-np.outer(self._v, self._u)) @ self._u).sum()
        acc = 0
        for i in range(30000):
            acc += i * i
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def factor(self) -> float:
        """Reference seconds per wall second for this run."""
        return REFERENCE_S / statistics.median(self.samples)
