"""Calibrated seconds: timings scaled by a fixed loop timed right beside them.

The host is shared and its speed switches between a quiet and a noisy regime
every few minutes (±20 % on the optimizer's DP), far wider than a bound can
be.  ``calibration_sample`` runs before and after every set-up and round (and
inside the long ``star_serving`` rounds), and each timing is reported as
measured seconds × ``scale(samples around it)``.  The reference is the loop's
time on the quiet box the workloads were sized on, so there the factor is ≈ 1
and calibrated seconds read as seconds.  The loop is the benchmark's, not the
program's: no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time
from typing import Iterable

__all__ = ["calibration_sample", "scale"]

CALIBRATION_ITERATIONS = 500_000
CALIBRATION_REFERENCE_S = 0.0352


def calibration_sample() -> float:
    """Seconds the fixed pure-Python loop takes right now (≈ 35 ms)."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def scale(samples: Iterable[float]) -> float:
    """Calibrated seconds per measured second, given the samples around a timing."""
    return CALIBRATION_REFERENCE_S / statistics.mean(samples)
