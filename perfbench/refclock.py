"""A reference clock that takes the host's changing speed out of op times.

On a shared host the same op can take 1.7 times as long from one
few-second phase to the next, as other tenants come and go. A fixed kernel
of the kind of work the ops do (interpreter loops over small tuples, NumPy
calls on small and mid-sized arrays, a small dense solve) is timed, best of
REPEATS, between ops and after every stage of an op (compile, hand-off,
verify) that takes MIN_STAGE_S or more, outside the timed stages. Each stage
is reported as

    wall time * (NOMINAL_S / kernel time around the stage) ** beta,
    beta = min(1, PHASE_S / wall time)

that is, in seconds at the speed at which the kernel takes NOMINAL_S, and an
op's time is the sum of its stages. A stage much longer than a phase
averages over the phases itself, and the samples at its ends say little
about its middle, so its correction fades out (beta < 1) instead of adding
their noise. The kernel is the benchmark's own code, identical on every
commit; raw wall times are printed beside the results.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

NOMINAL_S = 1.1e-3  # about the kernel's best-of-three time on a shared 2-vCPU x86-64 VM
EVERY_S = 0.1  # longest gap between two kernel samples inside a loop
PHASE_S = 2.0  # stages up to this long get the full correction
MIN_STAGE_S = 0.02  # stages at least this long are followed by a sample
REPEATS = 3  # kernel runs per sample

_RNG = np.random.default_rng(12345)
_A = _RNG.uniform(-1.0, 1.0, (96, 96)) + 96.0 * np.eye(96)
_B = _RNG.uniform(-1.0, 1.0, 96)
_V = _RNG.uniform(0.0, 6.0, 2048)
_J = np.arange(1 << 15, dtype=np.int64)
_TUPLES = [(k % 3, k & 7, k * 0.5) for k in range(400)]


def kernel() -> float:
    """One sample of the fixed reference work; returns a checksum."""
    acc = 0.0
    for kind, bit, angle in _TUPLES:
        if kind == 0:
            acc += angle if bit & 1 else -angle
        elif kind == 1:
            acc -= bit
    v = _V
    for _ in range(8):
        v = np.where(v > 3.0, v - 1.0, v + 1.0)
    j = _J
    theta = np.zeros(len(j))
    for b in range(4):
        j = j ^ ((j >> b & 1) << (b + 5))
        theta += np.where(j >> (b + 2) & 1, 0.5, -0.5)
    x = np.linalg.solve(_A, _B)
    return acc + float(v.sum()) + float(theta[-1]) + float(x[0])


class RefClock:
    """Kernel samples taken between ops, and the correction of op times."""

    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.samples: list[float] = []  # kernel seconds

    def sample(self) -> None:
        """Time the kernel REPEATS times and keep the fastest, so that one
        preempted run does not stand for the host's speed."""
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
            best = min(best, t1 - t0)
        self.times.append(t1)
        self.samples.append(best)

    def due(self) -> bool:
        return not self.times or perf_counter() - self.times[-1] >= EVERY_S

    def scale(self, start: float, end: float) -> float:
        """Factor for a stage that ran over [start, end]. The kernel time
        around it is the mean of the samples taken inside it and of the last
        one before and the first one after it."""
        first = max(bisect_right(self.times, start) - 1, 0)
        last = bisect_left(self.times, end)
        kernel_s = statistics.fmean(self.samples[first : last + 1])
        beta = min(1.0, PHASE_S / (end - start)) if end > start else 1.0
        return (NOMINAL_S / kernel_s) ** beta
