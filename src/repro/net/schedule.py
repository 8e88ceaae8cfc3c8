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

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "WorkingSchedule",
    "ScheduleTable",
    "duty_ratio_to_period",
    "period_to_duty_ratio",
    "random_schedules",
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


def period_to_duty_ratio(period: int, active_slots: int = 1) -> float:
    """Duty ratio of a schedule with ``active_slots`` active slots per period.

    >>> period_to_duty_ratio(20)
    0.05
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if not (1 <= active_slots <= period):
        raise ValueError(
            f"active_slots must be in [1, period], got {active_slots} for period {period}"
        )
    return active_slots / period


@dataclass(frozen=True)
class WorkingSchedule:
    """Periodic active/dormant pattern of one sensor.

    Parameters
    ----------
    period:
        Cycle length ``T`` in slots.
    active_slots:
        Offsets within ``[0, period)`` at which the sensor's radio is on.
        The normalized model uses a single offset.
    """

    period: int
    active_slots: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        slots = frozenset(int(s) for s in self.active_slots)
        if not slots:
            raise ValueError("a schedule needs at least one active slot")
        for s in slots:
            if not (0 <= s < self.period):
                raise ValueError(
                    f"active slot {s} outside period [0, {self.period})"
                )
        object.__setattr__(self, "active_slots", slots)

    @classmethod
    def single(cls, period: int, offset: int) -> "WorkingSchedule":
        """The paper's normalized schedule: one active slot per period."""
        return cls(period=period, active_slots=frozenset({offset}))

    @property
    def duty_ratio(self) -> float:
        """Fraction of time the radio is on."""
        return len(self.active_slots) / self.period

    def is_active(self, t: int) -> bool:
        """Whether the sensor can receive in original-time slot ``t``."""
        t = validate_slot_index(t)
        return (t % self.period) in self.active_slots

    def next_active(self, t: int) -> int:
        """The earliest slot ``>= t`` in which the sensor is active.

        This is the sleep-latency primitive: a sender holding a packet for
        this sensor at time ``t`` must wait until ``next_active(t)``.
        """
        t = validate_slot_index(t)
        phase = t % self.period
        base = t - phase
        # Candidates this period...
        best: Optional[int] = None
        for s in self.active_slots:
            cand = base + s if s >= phase else base + self.period + s
            if best is None or cand < best:
                best = cand
        assert best is not None
        return best

    def next_active_after(self, t: int) -> int:
        """The earliest active slot strictly after ``t`` (for retransmission)."""
        return self.next_active(t + 1)

    def active_slots_in(self, t_start: int, t_end: int) -> List[int]:
        """All active slots in the half-open window ``[t_start, t_end)``."""
        if t_end < t_start:
            raise ValueError(f"empty window: [{t_start}, {t_end})")
        out: List[int] = []
        t = self.next_active(t_start)
        while t < t_end:
            out.append(t)
            t = self.next_active(t + 1)
        return out

    def sleep_latency_from(self, t: int) -> int:
        """Slots a sender must wait from ``t`` before this node can receive."""
        return self.next_active(t) - t


class ScheduleTable:
    """Vectorized schedule store for a whole network.

    The simulator's hot path asks "which nodes wake at slot ``t``" once per
    slot; doing that through per-node Python objects would dominate the run
    time. ``ScheduleTable`` stores the normalized single-active-slot model
    in flat NumPy arrays and precomputes the wake list for each phase of the
    common period.

    All sensors share the same period ``T`` (the paper's setting). The
    source (node 0) is conventionally always-on but the table still assigns
    it an offset; protocols never route *to* the source so this is harmless.
    """

    def __init__(self, period: int, offsets: Sequence[int]):
        self.period = int(period)
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self.offsets = np.asarray(offsets, dtype=np.int64)
        if self.offsets.ndim != 1:
            raise ValueError("offsets must be a 1-D sequence")
        if self.offsets.size == 0:
            raise ValueError("schedule table needs at least one node")
        if np.any((self.offsets < 0) | (self.offsets >= self.period)):
            raise ValueError("offsets must lie in [0, period)")
        self.n_nodes = int(self.offsets.size)
        # wake_lists[phase] -> array of node ids active at that phase.
        self.wake_lists: List[np.ndarray] = [
            np.flatnonzero(self.offsets == phase) for phase in range(self.period)
        ]

    @classmethod
    def random(
        cls, n_nodes: int, period: int, rng: np.random.Generator
    ) -> "ScheduleTable":
        """Each node independently picks a uniform random active slot."""
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        offsets = rng.integers(0, period, size=n_nodes)
        return cls(period=period, offsets=offsets)

    @classmethod
    def from_duty_ratio(
        cls, n_nodes: int, duty_ratio: float, rng: np.random.Generator
    ) -> "ScheduleTable":
        """Random schedules at the requested duty ratio (normalized model)."""
        return cls.random(n_nodes, duty_ratio_to_period(duty_ratio), rng)

    @property
    def duty_ratio(self) -> float:
        return 1.0 / self.period

    @property
    def offsets_matrix(self) -> np.ndarray:
        """``(n_nodes, 1)`` offsets: the multi-slot tables' layout."""
        return self.offsets[:, None]

    def awake_at(self, t: int) -> np.ndarray:
        """Node ids whose active slot matches slot ``t`` (ascending order)."""
        return self.wake_lists[validate_slot_index(t) % self.period]

    def is_active(self, node: int, t: int) -> bool:
        """Whether ``node`` can receive at slot ``t``."""
        return int(self.offsets[node]) == (t % self.period)

    def next_active(self, node: int, t: int) -> int:
        """Earliest slot ``>= t`` at which ``node`` is active."""
        t = validate_slot_index(t)
        return t + int(slots_until_phase(int(self.offsets[node]), t, self.period))

    def next_active_array(self, t: int) -> np.ndarray:
        """Vectorized :meth:`next_active` for all nodes at once."""
        t = validate_slot_index(t)
        return t + slots_until_phase(self.offsets, t, self.period)

    def next_wake_after(self, t: int, nodes=None) -> np.ndarray:
        """Earliest active slot *strictly after* ``t``, vectorized.

        This is the quiescence-frontier primitive: a protocol that knows
        which receivers it could still serve asks when the earliest of
        them can next receive, and the engine fast-forwards to that slot.
        ``nodes`` restricts the query to an id array (duplicates allowed);
        default is all nodes. A node active at ``t`` itself maps to
        ``t + period`` — "after" is strict, matching
        :meth:`WorkingSchedule.next_active_after`.
        """
        t = validate_slot_index(t)
        offsets = self.offsets if nodes is None else self.offsets[nodes]
        return (t + 1) + slots_until_phase(offsets, t + 1, self.period)

    def schedule_of(self, node: int) -> WorkingSchedule:
        """Materialize the :class:`WorkingSchedule` view of one node."""
        return WorkingSchedule.single(self.period, int(self.offsets[node]))

    def __len__(self) -> int:
        return self.n_nodes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ScheduleTable(n_nodes={self.n_nodes}, period={self.period}, "
            f"duty={self.duty_ratio:.2%})"
        )


def random_schedules(
    n_nodes: int,
    duty_ratio: float,
    rng: np.random.Generator,
    active_slots: int = 1,
) -> List[WorkingSchedule]:
    """Draw independent random :class:`WorkingSchedule` objects.

    This is the object-level counterpart of
    :meth:`ScheduleTable.from_duty_ratio` for code paths that need the
    richer multi-active-slot model (e.g. the energy/tradeoff analysis).
    """
    if active_slots < 1:
        raise ValueError(f"active_slots must be >= 1, got {active_slots}")
    period = max(int(round(active_slots / duty_ratio)), active_slots)
    schedules = []
    for _ in range(n_nodes):
        chosen: Iterable[int] = rng.choice(period, size=active_slots, replace=False)
        schedules.append(
            WorkingSchedule(period=period, active_slots=frozenset(int(c) for c in chosen))
        )
    return schedules
