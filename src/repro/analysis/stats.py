"""Small-sample statistics for replicated experiments.

The trace experiments average a handful of replications; reporting a
bare mean hides how noisy low-duty-cycle floods are (a single unlucky
straggler cluster can double a replication's delay). These helpers
compute Student-t confidence intervals and the paired comparisons the
protocol-dominance checks should really be using.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "MeanCI", "mean_ci", "paired_delta_ci", "dominates_paired",
]


@dataclass(frozen=True)
class MeanCI:
    """A mean with its two-sided confidence interval."""

    mean: float
    lower: float
    upper: float
    confidence: float
    n: int

    def __post_init__(self):
        if not (self.lower <= self.mean <= self.upper):
            raise ValueError("interval must contain the mean")

    @property
    def halfwidth(self) -> float:
        return (self.upper - self.lower) / 2

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _clean(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise ValueError("no finite samples")
    return arr


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> MeanCI:
    """Student-t confidence interval for the mean.

    With a single sample the interval degenerates to a point (reported
    honestly rather than raising — one-replication experiments exist).
    """
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    arr = _clean(values)
    m = float(arr.mean())
    n = int(arr.size)
    if n == 1:
        return MeanCI(mean=m, lower=m, upper=m, confidence=confidence, n=1)
    # Imported here: scipy.special would otherwise load with every
    # simulation, and only these CI helpers use it.
    from scipy.special import stdtrit

    sem = float(arr.std(ddof=1)) / math.sqrt(n)
    # Student-t quantile: stdtrit is what scipy.stats.t.ppf evaluates.
    t = float(stdtrit(n - 1, 0.5 + confidence / 2))
    return MeanCI(
        mean=m, lower=m - t * sem, upper=m + t * sem,
        confidence=confidence, n=n,
    )


def paired_delta_ci(
    a: Sequence[float], b: Sequence[float], confidence: float = 0.95
) -> MeanCI:
    """Confidence interval for the paired difference ``a - b``.

    Replications of two protocols run on identical schedules/loss
    streams, so differences are paired — far tighter than comparing two
    independent means.
    """
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    if a_arr.shape != b_arr.shape:
        raise ValueError("paired samples must have equal length")
    mask = np.isfinite(a_arr) & np.isfinite(b_arr)
    return mean_ci((a_arr - b_arr)[mask], confidence)


def dominates_paired(
    better: Sequence[float], worse: Sequence[float], confidence: float = 0.9
) -> bool:
    """Whether ``better`` is significantly below ``worse`` (paired test).

    True when the upper confidence limit of ``better - worse`` is below
    zero; with a single replication falls back to a plain comparison.
    """
    ci = paired_delta_ci(better, worse, confidence)
    if ci.n == 1:
        return ci.mean < 0
    return ci.upper < 0
