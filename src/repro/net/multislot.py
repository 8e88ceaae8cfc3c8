"""Multi-active-slot schedule tables (duty ratio ``a/T``).

The paper's general model lets a sensor pick *several* active slots per
period before Sec. IV normalizes to one slot per period. This module
implements the general table with the same query interface as
:class:`~repro.net.schedule.ScheduleTable`, so the engine and protocols
run unchanged.

Why it matters: at a fixed duty ratio (fixed radio-on energy), a node
wakes equally often however the budget is split, so splitting cannot
shorten the mean *sleep latency* — randomly placed slots even lengthen
it (irregular gaps). Multi-packet floods nonetheless run faster on
split schedules; the ``slot-split`` experiment measures this
energy-neutral delay lever, which the paper's normalized analysis
deliberately sets aside.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .schedule import (
    ScheduleTable,
    WorkingSchedule,
    slots_until_phase,
    validate_slot_index,
)

__all__ = ["MultiSlotScheduleTable"]


class MultiSlotScheduleTable:
    """Vectorized schedule store with ``a`` active slots per node.

    Parameters
    ----------
    period:
        Cycle length ``T`` in slots (shared by all nodes).
    offsets:
        ``(n_nodes, a)`` array; row ``v`` lists node ``v``'s active slot
        offsets within ``[0, period)``. Duplicate offsets within a row
        are rejected (they would silently lower the duty ratio).
    """

    def __init__(self, period: int, offsets: np.ndarray):
        self.period = int(period)
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 2 or offsets.shape[0] < 1 or offsets.shape[1] < 1:
            raise ValueError("offsets must be a non-empty (n_nodes, a) array")
        if np.any((offsets < 0) | (offsets >= self.period)):
            raise ValueError("offsets must lie in [0, period)")
        for v in range(offsets.shape[0]):
            if np.unique(offsets[v]).size != offsets.shape[1]:
                raise ValueError(f"node {v} has duplicate active slots")
        self.offsets_matrix = offsets
        self.n_nodes = int(offsets.shape[0])
        self.slots_per_period = int(offsets.shape[1])
        # Wake list per phase, precomputed like the single-slot table.
        self.wake_lists: List[np.ndarray] = [
            np.unique(np.nonzero(offsets == phase)[0])
            for phase in range(self.period)
        ]

    # -- Constructors ---------------------------------------------------

    @classmethod
    def random(
        cls,
        n_nodes: int,
        period: int,
        slots_per_period: int,
        rng: np.random.Generator,
    ) -> "MultiSlotScheduleTable":
        """Each node independently picks ``a`` distinct random slots."""
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if not (1 <= slots_per_period <= period):
            raise ValueError(
                f"slots_per_period must be in [1, period], got "
                f"{slots_per_period} for period {period}"
            )
        offsets = np.empty((n_nodes, slots_per_period), dtype=np.int64)
        for v in range(n_nodes):
            offsets[v] = rng.choice(period, size=slots_per_period,
                                    replace=False)
        return cls(period=period, offsets=offsets)

    @classmethod
    def from_single(cls, table: ScheduleTable) -> "MultiSlotScheduleTable":
        """Wrap a normalized single-slot table (duty ``1/T``)."""
        return cls(period=table.period, offsets=table.offsets[:, None])

    # -- Queries (ScheduleTable-compatible) ------------------------------

    @property
    def duty_ratio(self) -> float:
        return self.slots_per_period / self.period

    #: Compatibility shim: protocols that need *an* offset per node (the
    #: DCA tree builder) get each node's first active slot. Documented
    #: approximation — the delay-optimal tree is then built against the
    #: first wake window only.
    @property
    def offsets(self) -> np.ndarray:
        return self.offsets_matrix[:, 0]

    def awake_at(self, t: int) -> np.ndarray:
        return self.wake_lists[validate_slot_index(t) % self.period]

    def is_active(self, node: int, t: int) -> bool:
        return bool(np.any(self.offsets_matrix[node] == (t % self.period)))

    def next_active(self, node: int, t: int) -> int:
        t = validate_slot_index(t)
        waits = slots_until_phase(self.offsets_matrix[node], t, self.period)
        return t + int(waits.min())

    def next_active_array(self, t: int) -> np.ndarray:
        t = validate_slot_index(t)
        waits = slots_until_phase(self.offsets_matrix, t, self.period)
        return t + waits.min(axis=1)

    def next_wake_after(self, t: int, nodes=None) -> np.ndarray:
        """Earliest active slot strictly after ``t`` (see ScheduleTable)."""
        t = validate_slot_index(t)
        mat = (
            self.offsets_matrix if nodes is None
            else self.offsets_matrix[nodes]
        )
        waits = slots_until_phase(mat, t + 1, self.period)
        return (t + 1) + waits.min(axis=1)

    def schedule_of(self, node: int) -> WorkingSchedule:
        return WorkingSchedule(
            period=self.period,
            active_slots=frozenset(int(s) for s in self.offsets_matrix[node]),
        )

    def __len__(self) -> int:
        return self.n_nodes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MultiSlotScheduleTable(n_nodes={self.n_nodes}, "
            f"period={self.period}, a={self.slots_per_period}, "
            f"duty={self.duty_ratio:.2%})"
        )
