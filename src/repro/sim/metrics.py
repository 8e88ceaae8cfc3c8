"""Flooding metrics (paper Sec. V-B measurement rules).

The paper measures the *flooding delay* of a packet as the time from when
it is pushed into the network until it reaches **99%** of the sensors —
the cut-off discounts the few sensors with extraordinarily poor
connectivity. We implement exactly that, parameterized by the coverage
target, and additionally separate the queueing (blocking) component from
the pure transmission component the way Fig. 9 does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

__all__ = ["coverage_threshold", "PacketDelays", "FloodMetrics"]


def coverage_threshold(n_eligible: int, coverage_target: float) -> int:
    """Sensors needed to call a packet delivered (the paper's 99% rule)."""
    if n_eligible < 1:
        raise ValueError("need at least one eligible sensor")
    if not (0.0 < coverage_target <= 1.0):
        raise ValueError(f"coverage target must be in (0, 1], got {coverage_target}")
    return max(int(math.ceil(coverage_target * n_eligible)), 1)


@dataclass
class PacketDelays:
    """Per-packet timing of one flood.

    All arrays are indexed by packet ``p = 0..M-1``; ``-1`` marks events
    that never happened (packet not completed within the horizon).

    Attributes
    ----------
    generated:
        Slot the source had the packet ready.
    first_tx:
        Slot of the source's first transmission attempt of the packet —
        the paper's "pushed into the network" instant.
    completed:
        Slot the packet reached the coverage target.
    """

    generated: np.ndarray
    first_tx: np.ndarray
    completed: np.ndarray

    def __post_init__(self):
        for name in ("generated", "first_tx", "completed"):
            arr = getattr(self, name)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
        if not (
            self.generated.shape == self.first_tx.shape == self.completed.shape
        ):
            raise ValueError("per-packet arrays must have equal length")

    @property
    def n_packets(self) -> int:
        return int(self.generated.size)

    @property
    def all_completed(self) -> bool:
        return bool(np.all(self.completed >= 0))

    def total_delay(self) -> np.ndarray:
        """Per-packet flooding delay (push -> coverage), the Fig. 9 curve.

        Incomplete packets get ``-1``.
        """
        done = (self.completed >= 0) & (self.first_tx >= 0)
        out = np.full(self.n_packets, -1, dtype=np.int64)
        out[done] = self.completed[done] - self.first_tx[done] + 1
        return out

    def queueing_delay_at_source(self) -> np.ndarray:
        """Slots each packet waited at the source before its first push."""
        pushed = self.first_tx >= 0
        out = np.full(self.n_packets, -1, dtype=np.int64)
        out[pushed] = self.first_tx[pushed] - self.generated[pushed]
        return out

    def makespan(self) -> int:
        """Slot at which the whole flood finished (or -1 if it did not)."""
        if not self.all_completed:
            return -1
        return int(self.completed.max())


@dataclass
class FloodMetrics:
    """Aggregate view of one flood used by the experiment harness.

    ``transmission_delay`` is the per-packet delay measured with queueing
    excluded — the experiment harness obtains it by re-flooding each
    packet in isolation on the same schedules/loss streams (Fig. 9's
    decomposition); it is optional because single-packet runs don't need
    it.
    """

    delays: PacketDelays
    tx_attempts: int
    tx_failures: int
    collisions: int
    duplicates: int
    overhears: int
    elapsed_slots: int
    coverage_per_packet: np.ndarray
    transmission_delay: Optional[np.ndarray] = None
    #: Transmissions that hit a dormant radio because the sender's clock
    #: view was wrong (only nonzero when the engine simulates skew).
    sleep_misses: int = 0

    def __post_init__(self):
        if self.tx_failures > self.tx_attempts:
            raise ValueError("failures cannot exceed attempts")
        if self.collisions > self.tx_failures:
            raise ValueError("collisions are a subset of failures")

    @property
    def n_packets(self) -> int:
        return self.delays.n_packets

    def average_delay(self) -> float:
        """Paper's 'average flooding delay': mean of per-packet delays.

        Only completed packets are averaged; returns NaN when none
        completed (so callers notice rather than silently reading 0).
        """
        d = self.delays.total_delay()
        d = d[d >= 0]
        return float(d.mean()) if d.size else float("nan")

    def blocking_delay(self) -> np.ndarray:
        """Per-packet queueing/blocking component (total - transmission).

        Requires ``transmission_delay``; raises otherwise.
        """
        if self.transmission_delay is None:
            raise ValueError("transmission delays were not measured for this run")
        total = self.delays.total_delay()
        out = np.full(self.n_packets, -1, dtype=np.int64)
        done = (total >= 0) & (self.transmission_delay >= 0)
        out[done] = np.maximum(total[done] - self.transmission_delay[done], 0)
        return out

    def failure_ratio(self) -> float:
        return self.tx_failures / self.tx_attempts if self.tx_attempts else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict for tables and EXPERIMENTS.md."""
        return {
            "n_packets": float(self.n_packets),
            "avg_delay": self.average_delay(),
            "makespan": float(self.delays.makespan()),
            "tx_attempts": float(self.tx_attempts),
            "tx_failures": float(self.tx_failures),
            "collisions": float(self.collisions),
            "duplicates": float(self.duplicates),
            "failure_ratio": self.failure_ratio(),
            "sleep_misses": float(self.sleep_misses),
            "min_coverage": float(self.coverage_per_packet.min())
            if self.coverage_per_packet.size
            else 0.0,
        }
