"""Theory-vs-simulation comparison helpers.

The paper's Sec. V validates the Sec. IV analysis against trace-driven
simulation. These helpers encode the *checks* that validation makes —
used by both the integration tests and the EXPERIMENTS.md shape audit:

* simulated flooding delay must respect the analytic lower bound
  (Theorem 2 lower / link-loss recurrence);
* the per-packet delay curve must show the bounded-blocking knee;
* protocol dominance (OPT <= DBAO <= OF) must hold on paired seeds;
* failure counts must be roughly flat across duty ratios.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.linkloss import effective_k, recurrence_hitting_time
from ..net.topology import Topology

__all__ = [
    "analytic_lower_bound",
    "respects_lower_bound",
    "dominance_holds",
    "relative_spread",
    "knee_index",
]


def analytic_lower_bound(
    topo: Topology, duty_ratio: float, n_packets: int = 1
) -> float:
    """Per-packet flooding-delay lower bound for a lossy trace network.

    The Sec. IV-B recurrence hitting time evaluated at the *optimistic*
    k-class — the average expected transmission count over each
    receiver's **best** incoming link. Even the OPT oracle, which always
    receives via the best link, pays at least this much per reception, so
    the bound sits below every protocol — the "Predicted Lower Bound"
    curve of Fig. 10. (Using the mean link quality instead would predict
    delays *above* OPT, which cherry-picks links the average never uses.)
    For multi-packet floods the single-packet bound remains a valid
    per-packet lower bound.
    """
    if not (0.0 < duty_ratio <= 1.0):
        raise ValueError(f"duty ratio must be in (0, 1], got {duty_ratio}")
    period = max(int(round(1.0 / duty_ratio)), 1)
    best_in = topo.prr.max(axis=0)  # best incoming PRR per receiver
    best_in = best_in[1:]  # the source never receives
    best_in = best_in[best_in > 0.0]
    if best_in.size == 0:
        raise ValueError("no sensor has an incoming link")
    k = effective_k(best_in)
    return float(recurrence_hitting_time(topo.n_sensors, k, period))


def respects_lower_bound(
    measured_delay: float, bound: float, tolerance: float = 0.0
) -> bool:
    """Whether a measured delay sits above the analytic bound.

    ``tolerance`` allows a small relative dip (coverage at 99%, not 100%,
    can finish slightly before the full-coverage bound).
    """
    if not math.isfinite(measured_delay):
        return False
    return measured_delay >= bound * (1.0 - tolerance)


def dominance_holds(
    delays: Dict[str, float], order: Sequence[str], slack: float = 1.05
) -> bool:
    """Whether protocol delays respect the expected ordering.

    ``order`` lists protocol names best-first; each must be no worse than
    ``slack`` times the next one's delay (statistical noise allowance).
    """
    vals = [delays[name] for name in order]
    return all(a <= b * slack for a, b in zip(vals, vals[1:]))


def relative_spread(values: Sequence[float]) -> float:
    """(max - min) / mean — the Fig. 11 'roughly constant' check."""
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0 or arr.mean() == 0:
        return float("inf")
    return float((arr.max() - arr.min()) / arr.mean())


def knee_index(per_packet_delay: np.ndarray, window: int = 5) -> Optional[int]:
    """Locate the pipeline-saturation knee in a per-packet delay curve.

    Returns the packet index after which the smoothed slope falls below
    half of the initial slope, or None when no knee is visible (curve too
    short or still in the ramp).
    """
    y = np.asarray(per_packet_delay, dtype=np.float64)
    y = np.where(np.isfinite(y), y, np.nan)
    if y.size < 3 * window:
        return None
    kernel = np.ones(window) / window
    smooth = np.convolve(
        np.nan_to_num(y, nan=np.nanmean(y)), kernel, mode="valid"
    )
    slopes = np.diff(smooth)
    head = slopes[:window].mean()
    if head <= 0:
        return None
    below = np.flatnonzero(slopes < 0.5 * head)
    return int(below[0]) + window // 2 if below.size else None
