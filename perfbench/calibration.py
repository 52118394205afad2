"""Host-speed calibration: fixed kernels timed in slices alongside the work.

On a shared host the whole CPU slows by up to 1.6x, in phases from under a
second to tens of seconds. Each unit takes calibration slices between its
cells or batches of estimates, or on both sides of a sweep run by a process
pool. A time divided by the unit's host factor (median slice time over the
reference slice time) is a time in reference seconds: what the work would
have taken at the speed this host shows when nothing else contends for it.

Code slows by different amounts under the same contention, so each kernel
has the instruction mix of one kind of work: ``simulate`` that of the sweeps,
``scan`` that of the estimator. No kernel runs package code, so a change to
the package cannot move them.
"""

from __future__ import annotations

import gc
import statistics
import time

#: slice time of each kernel on an uncontended 2.1 GHz Xeon core
REFERENCE_S = {"simulate": 0.0025, "scan": 0.0025}


def _simulate(rounds: int = 200) -> int:
    # the simulator's frame loop: draw slots, bincount, count classes
    import numpy as np

    rng = np.random.default_rng(12345)
    acc = 0
    for _ in range(rounds):
        counts = np.bincount(rng.integers(0, 128, size=500), minlength=128)
        acc += int(np.count_nonzero(counts == 0))
        for j in range(30):
            acc += j * j
    return acc


def _scan(rounds: int = 120) -> int:
    # the estimator's search: a vector of log terms per chunk of 256
    # candidates, then a Python pass over it tracking the running maximum
    import numpy as np

    acc = 0
    for r in range(rounds):
        ks = np.arange(r, r + 256, dtype=float)
        values = -ks + 40.0 * np.log1p(ks / 64.0)
        best, below = -float("inf"), 0
        for k, v in zip(ks.tolist(), values.tolist()):
            if v > best:
                best, below = v, 0
            elif v < best:
                below += 1
        acc += below
    return acc


KERNELS = {"simulate": _simulate, "scan": _scan}


class Calibrator:
    """Takes slices of one kernel and keeps their times."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.slices: list[float] = []
        KERNELS[kernel]()  # a cold first run is slower

    def slice(self) -> None:
        """Time one run of the next kernel, with the collector paused.

        A traced unit holds many span objects; collections paced by them
        would read as a slower host.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            KERNELS[self.kernel]()
            self.slices.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()


    def host_factor(self) -> float:
        """How many times slower than the reference the host ran during the slices."""
        return statistics.median(self.slices) / REFERENCE_S[self.kernel]
