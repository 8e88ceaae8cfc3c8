"""Packets and flood workloads.

The paper's queueing discipline (Sec. III-C) is FCFS everywhere: the
source injects packets sequentially, and every relay forwards the packet
that *arrived at it* earliest among those the intended receiver still
needs. The engine keeps that state in arrays (arrival slots per
replication, packet and node; see :mod:`repro.sim.batch`); this module
holds the source's side: packets and their injection plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["Packet", "FloodWorkload"]


@dataclass(frozen=True, order=True)
class Packet:
    """One flooded packet.

    Ordering is by ``index`` (the source injection order ``p = 0..M-1``),
    which matches FCFS at the source.
    """

    index: int
    generated_at: int = 0

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"packet index must be non-negative, got {self.index}")
        if self.generated_at < 0:
            raise ValueError(
                f"generation slot must be non-negative, got {self.generated_at}"
            )


class FloodWorkload:
    """The source's injection plan: ``M`` packets with generation slots.

    ``generation_interval`` spaces out the injections (``gen[p] = p * g``).
    The paper's experiments use back-to-back injection (``g = 0``): all
    packets are ready at slot 0 and serialize purely through FCFS and the
    one-transmission-per-slot radio constraint.
    """

    def __init__(self, n_packets: int, generation_interval: int = 0):
        if n_packets < 1:
            raise ValueError(f"need at least one packet, got {n_packets}")
        if generation_interval < 0:
            raise ValueError("generation interval must be non-negative")
        self.n_packets = int(n_packets)
        self.generation_interval = int(generation_interval)

    def generation_slot(self, packet_index: int) -> int:
        """Slot at which packet ``p`` becomes available at the source."""
        if not (0 <= packet_index < self.n_packets):
            raise IndexError(
                f"packet index {packet_index} outside [0, {self.n_packets})"
            )
        return packet_index * self.generation_interval

    def generation_slots(self) -> np.ndarray:
        """Vector of generation slots for all packets."""
        return np.arange(self.n_packets, dtype=np.int64) * self.generation_interval

    def packets(self) -> List[Packet]:
        """Materialized packet objects in injection order."""
        return [
            Packet(index=p, generated_at=self.generation_slot(p))
            for p in range(self.n_packets)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FloodWorkload(M={self.n_packets}, "
            f"interval={self.generation_interval})"
        )
