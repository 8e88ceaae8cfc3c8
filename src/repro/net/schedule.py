"""Working schedules for low-duty-cycle sensors.

Paper model (Sec. III-A): time is slotted; every sensor repeats a periodic
working schedule of period ``T`` slots. Within one period the sensor is
*active* (radio on, can receive) in a small set of slots and *dormant*
otherwise. The paper's normalized analysis uses exactly one active slot per
period, giving duty ratio ``1/T``; the general model allows ``a`` active
slots for duty ratio ``a/T``.

A dormant sensor can still *wake itself to transmit* at any slot (its timer
fires when a neighbor is about to be active), but it can *receive* only in
its own active slots. This asymmetry is what creates sleep latency.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "ScheduleTable",
    "duty_ratio_to_period",
    "slots_until_phase",
    "validate_slot_index",
]


def validate_slot_index(t: int) -> int:
    """Shared guard for every schedule query: slot indices start at 0."""
    if t < 0:
        raise ValueError(f"slot index must be non-negative, got {t}")
    return int(t)


def slots_until_phase(offsets, t: int, period: int):
    """Wait from slot ``t`` until each offset's phase next recurs.

    ``offsets`` may be a scalar or an array of per-node (or per-window)
    phase offsets in ``[0, period)``; the result has the same shape.
    A node already at its phase waits 0 slots.
    """
    return (offsets - t % period) % period


def duty_ratio_to_period(duty_ratio: float) -> int:
    """Convert a duty ratio to the normalized period ``T = round(1/ratio)``.

    The paper's normalized model has one active slot per period, so a 5%
    duty cycle means ``T = 20``.

    >>> duty_ratio_to_period(0.05)
    20
    """
    if not (0.0 < duty_ratio <= 1.0):
        raise ValueError(f"duty ratio must be in (0, 1], got {duty_ratio}")
    period = int(round(1.0 / duty_ratio))
    return max(period, 1)


class ScheduleTable:
    """Vectorized schedule store for a whole network.

    Every sensor shares the period ``T`` (the paper's setting) and has
    ``a`` distinct active slots per period, so the duty ratio is
    ``a/T``; the paper's normalized analysis is ``a = 1``. The
    simulator's hot path asks "which nodes wake at slot ``t``" once per
    slot, so the table keeps the offsets in one ``(n_nodes, a)`` array
    and precomputes the wake list of every phase of the period.

    Parameters
    ----------
    period:
        Cycle length ``T`` in slots.
    offsets:
        Integer active-slot offsets within ``[0, period)``: an
        ``(n_nodes,)`` sequence for one slot per node, or an
        ``(n_nodes, a)`` array whose row ``v`` lists node ``v``'s slots.
        Duplicate offsets within a row are rejected (they would silently
        lower the duty ratio).

    The source (node 0) is conventionally always-on but the table still
    assigns it offsets; protocols never route *to* the source so this is
    harmless.
    """

    def __init__(self, period: int,
                 offsets: "np.ndarray | Sequence[int]"):
        self.period = int(period)
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        offsets = np.asarray(offsets)
        if offsets.size == 0:
            raise ValueError(
                "schedule table needs at least one node and active slot")
        if not np.issubdtype(offsets.dtype, np.integer):
            raise ValueError(
                f"offsets must be integers, got dtype {offsets.dtype}")
        if offsets.ndim == 1:
            offsets = offsets[:, None]
        elif offsets.ndim != 2:
            raise ValueError(
                "offsets must be an (n_nodes,) or (n_nodes, a) array")
        offsets = offsets.astype(np.int64, copy=False)
        if np.any((offsets < 0) | (offsets >= self.period)):
            raise ValueError("offsets must lie in [0, period)")
        self.n_nodes, self.slots_per_period = offsets.shape
        ordered = np.sort(offsets, axis=1)
        dup = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if dup.any():
            raise ValueError(
                f"node {int(dup.argmax())} has duplicate active slots")
        self.offsets_matrix = offsets
        #: Each node's first active slot: the one offset per node that
        #: single-slot consumers (the DCA tree builder) read.
        self.offsets = offsets[:, 0]
        # wake_lists[phase] -> ascending ids of the nodes active at that
        # phase. A stable sort of the node-major offsets groups them by
        # phase with node ids ascending within each group.
        flat = offsets.ravel()
        nodes = np.argsort(flat, kind="stable") // self.slots_per_period
        bounds = np.cumsum(np.bincount(flat, minlength=self.period))
        self.wake_lists: List[np.ndarray] = np.split(nodes, bounds[:-1])

    @classmethod
    def random(
        cls, n_nodes: int, period: int, rng: np.random.Generator,
        slots_per_period: int = 1,
    ) -> "ScheduleTable":
        """Each node independently picks ``slots_per_period`` distinct
        uniform random active slots."""
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        if not (1 <= slots_per_period <= period):
            raise ValueError(
                f"slots_per_period must be in [1, period], got "
                f"{slots_per_period} for period {period}"
            )
        if slots_per_period == 1:
            offsets = rng.integers(0, period, size=n_nodes)
        else:
            offsets = np.stack([
                rng.choice(period, size=slots_per_period, replace=False)
                for _ in range(n_nodes)
            ])
        return cls(period=period, offsets=offsets)

    @property
    def duty_ratio(self) -> float:
        return self.slots_per_period / self.period

    def awake_at(self, t: int) -> np.ndarray:
        """Node ids with an active slot at slot ``t`` (ascending order)."""
        return self.wake_lists[validate_slot_index(t) % self.period]

    def is_active(self, node: int, t: int) -> bool:
        """Whether ``node`` can receive at slot ``t``."""
        phase = validate_slot_index(t) % self.period
        return bool((self.offsets_matrix[node] == phase).any())

    def next_active(self, node: int, t: int) -> int:
        """Earliest slot ``>= t`` at which ``node`` is active.

        This is the sleep-latency primitive: a sender holding a packet
        for ``node`` at slot ``t`` must wait until ``next_active(node, t)``.
        """
        t = validate_slot_index(t)
        waits = slots_until_phase(self.offsets_matrix[node], t, self.period)
        return t + int(waits.min())

    def __len__(self) -> int:
        return self.n_nodes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ScheduleTable(n_nodes={self.n_nodes}, period={self.period}, "
            f"a={self.slots_per_period}, duty={self.duty_ratio:.2%})"
        )
