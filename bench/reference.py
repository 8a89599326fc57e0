"""Reference kernels that put measured times on one machine speed.

On a shared host the machine's speed drifts: the same job can run 1.7x
slower for seconds to minutes at a time, and large-array work halves or
doubles its speed over tens of minutes.  No statistic over one run removes
that: a run that falls in a slow phase reads slow.  So each timed interval
is bracketed by readings of a short reference kernel that does not call
cvmdi, and its time is scaled to the speed at which the kernel takes its
nominal time:

    calibrated = measured * nominal / mean(reading before, reading after)

A change to the program moves `measured` and leaves the kernel alone; a
change of machine phase moves both.  A workload uses the kernel that
resembles its hot path (workloads.KERNELS): `small` computes 4x4 spectra
one matrix at a time, like the rate kernel; `blocks` samples blocks of
normal records and reduces them, like a simulated trial.  Set-up time is
scaled by a `small` reading that the same fresh interpreter takes right
after it (run.py).  The nominal times are fixed constants near the
kernels' times on the 2-vCPU Xeon host of the baseline; comparisons
between runs do not depend on them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_MATRIX = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 2.0, 0.0, 0.1],
                    [0.1, 0.0, 3.0, 0.2], [0.0, 0.1, 0.2, 3.0]])
_RNG = np.random.default_rng(0)


def small_calls() -> float:
    total = 0.0
    for i in range(400):
        eigenvalues = np.linalg.eigvalsh(_MATRIX * (1.0 + i * 1e-4))
        total += float(np.sum(np.log(eigenvalues)))
    return total


def record_blocks() -> float:
    total = 0.0
    for m in (10_000, 40_000, 90_000):
        records = _RNG.standard_normal((6, m))
        moments = records @ records.T / m
        total += float(np.linalg.eigvalsh(moments[:4, :4]).sum())
    return total


# name: (kernel, calls per reading, nominal seconds per call).  A reading is
# the median of its calls, so that one call cut short or stretched by the
# scheduler does not scale a whole job.
KERNELS = {
    "small": (small_calls, 3, 6.0e-3),
    "blocks": (record_blocks, 5, 1.7e-2),
}


def kernel_seconds(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def reading(name: str) -> float:
    kernel, calls, _ = KERNELS[name]
    return statistics.median([kernel_seconds(kernel) for _ in range(calls)])


def calibrate_after(seconds: float) -> float:
    """seconds scaled by a `small` reading taken just after them."""
    return seconds * KERNELS["small"][2] / reading("small")


class CalibratedClock:
    """Times intervals and scales each by the readings around it.

    Consecutive intervals share the reading between them, so a run of n
    intervals costs n + 1 readings.
    """

    def __init__(self, kernel: str):
        self.kernel, self.nominal = kernel, KERNELS[kernel][2]
        self.last = reading(kernel)

    def time(self, call):
        """(result, raw seconds, calibrated seconds) of call()."""
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        after = reading(self.kernel)
        scale = self.nominal / (0.5 * (self.last + after))
        self.last = after
        return result, elapsed, elapsed * scale
