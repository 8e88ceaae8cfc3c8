"""Network-wide energy accounting (paper Sec. V-C).

The paper's argument decomposes per-node energy into

* **duty-cycle energy** — radio-on time, proportional to the duty ratio
  and the experiment duration;
* **useful transmission energy** — identical across protocols for the
  same delivered traffic; and
* **wasted transmission energy** — failed transmissions (loss +
  collisions), which Fig. 11 shows to be nearly constant across duty
  ratios.

:class:`EnergyLedger` tracks the raw counts during a simulation;
:func:`energy_summary` converts them into energy units with an
:class:`~repro.core.tradeoff.EnergyModel` so the trade-off experiments
can put simulated floods and the analytic lifetime model on one axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..core.tradeoff import EnergyModel

__all__ = ["EnergyLedger", "energy_summary"]


class EnergyLedger:
    """Per-node counters for one simulation run."""

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = int(n_nodes)
        self.tx_attempts = np.zeros(n_nodes, dtype=np.int64)
        self.tx_failures = np.zeros(n_nodes, dtype=np.int64)
        self.rx_successes = np.zeros(n_nodes, dtype=np.int64)
        self.elapsed_slots = 0

    def note_tx(self, sender: int) -> None:
        self.tx_attempts[sender] += 1

    def note_failure(self, sender: int) -> None:
        self.tx_failures[sender] += 1

    def note_rx(self, receiver: int) -> None:
        self.rx_successes[receiver] += 1

    def note_elapsed(self, slots: int) -> None:
        if slots < 0:
            raise ValueError("elapsed slots must be non-negative")
        self.elapsed_slots += int(slots)

    @property
    def total_tx(self) -> int:
        return int(self.tx_attempts.sum())

    @property
    def total_failures(self) -> int:
        return int(self.tx_failures.sum())

    @property
    def total_rx(self) -> int:
        return int(self.rx_successes.sum())

    def failure_ratio(self) -> float:
        """Fraction of transmission attempts that failed."""
        total = self.total_tx
        return self.total_failures / total if total else 0.0

    def validate(self) -> None:
        """Internal consistency: failures never exceed attempts."""
        if np.any(self.tx_failures > self.tx_attempts):
            raise AssertionError("per-node failures exceed attempts")


def energy_summary(
    ledger: EnergyLedger,
    duty_ratio: float,
    model: Optional[EnergyModel] = None,
) -> Dict[str, float]:
    """Convert a ledger into energy units.

    Radio-on time is computed analytically from the duty ratio and the
    elapsed slots (every node is on for ``duty * elapsed`` slots plus one
    wake-up per transmission attempt).
    """
    if not (0.0 < duty_ratio <= 1.0):
        raise ValueError(f"duty ratio must be in (0, 1], got {duty_ratio}")
    model = model or EnergyModel()
    radio_on = duty_ratio * ledger.elapsed_slots * ledger.n_nodes + ledger.total_tx
    sleep = (1 - duty_ratio) * ledger.elapsed_slots * ledger.n_nodes
    duty_energy = radio_on * model.active_power + sleep * model.sleep_power
    tx_energy = ledger.total_tx * model.tx_energy
    wasted_energy = ledger.total_failures * model.tx_energy
    total = duty_energy + tx_energy
    return {
        "duty_energy": float(duty_energy),
        "tx_energy": float(tx_energy),
        "wasted_tx_energy": float(wasted_energy),
        "total_energy": float(total),
        "per_node_energy": float(total / ledger.n_nodes),
        "failure_ratio": ledger.failure_ratio(),
    }
