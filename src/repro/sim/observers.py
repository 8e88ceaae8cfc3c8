"""Observer layer: instrumentation hooks for the flood engine.

The engine's job is to advance simulation state and count what it must
report (counters, the energy ledger). Everything else that merely
*watches* a flood — the event log, tracing, user metrics — implements
:class:`SimObserver` and is dispatched at fixed points of each slot,
per replication (``run_flood(..., observers=[...])`` or
``run_flood_batch(..., observers_list=[...])``), instead of forking the
loop.

Hook order within one executed slot with traffic::

    on_inject(t, packet)              # per packet injected this slot
    on_slot(t, awake)                 # once, after wake sets are known
    on_tx(t, batch, outcome, misses)  # once, after channel resolution
    on_reception(t, rec, is_dup)      # per reception, in outcome order
    on_complete(t, packet)            # before the completing reception

Receptions arrive in the link model's order: ascending receiver for the
ideal link, micro-round by micro-round for the 802.15.4 MAC. Slots the
engine can prove quiescent are not executed at all: a single
``on_idle_span(t_start, t_end)`` reports each skipped half-open span
(the compact-time fast-forward), and no per-slot hook fires inside it.

``on_complete`` fires *before* the ``on_reception`` call of the
reception that pushed the packet over the coverage target — this
preserves the historical event-log ordering (COMPLETE precedes the
DELIVER/OVERHEAR record). ``on_finish`` fires once with the final
:class:`~repro.sim.engine.FloodResult`.

Dispatch is pay-for-what-you-use: the engine only calls a hook on
observers that actually override it (see :func:`overriders_of`), and a
run whose observers override no per-slot hook runs the plain loop.
"""

from __future__ import annotations

import sys
import tracemalloc
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..net.radio import Reception, SlotOutcome, TxBatch
from .events import EventKind, EventLog, SimEvent

__all__ = [
    "SimObserver",
    "EventLogObserver",
    "PhaseProfiler",
    "overriders_of",
]


class SimObserver:
    """Base class for flood instrumentation; every hook is a no-op.

    Subclasses override only the hooks they care about. Observers must
    treat every argument as read-only — they watch the simulation, they
    do not steer it.
    """

    def on_slot(self, t: int, awake: np.ndarray) -> None:
        """An *executed* slot began; ``awake`` is the believed wake set.

        Slots the engine fast-forwards over do not fire this hook — they
        are reported in bulk through :meth:`on_idle_span` instead.
        """

    def on_idle_span(self, t_start: int, t_end: int) -> None:
        """Slots ``[t_start, t_end)`` were fast-forwarded in one jump.

        The engine proved (via the protocol's quiescence contract,
        :meth:`~repro.protocols.base.FloodingProtocol.next_action_slots`)
        that no transmission, injection, or protocol state change could
        occur in the span, so per-slot hooks never fire inside it.
        Observers that count or integrate over time must add the span's
        width to stay exact.
        """

    def on_inject(self, t: int, packet: int) -> None:
        """The source generated ``packet`` at slot ``t``."""

    def on_tx(
        self, t: int, batch: TxBatch, outcome: SlotOutcome, sleep_misses: int
    ) -> None:
        """The slot's transmissions resolved.

        ``batch`` holds the validated proposals, ``outcome`` what the
        channel did with them, and ``sleep_misses`` how many of them
        addressed a radio that was actually dormant (clock skew).
        """

    def on_reception(self, t: int, rec: Reception, is_duplicate: bool) -> None:
        """A frame was received; ``is_duplicate`` if the receiver had it."""

    def on_complete(self, t: int, packet: int) -> None:
        """``packet`` reached the coverage target at slot ``t``."""

    def on_finish(self, result) -> None:
        """The run ended; ``result`` is the final FloodResult."""


_HOOKS = ("on_slot", "on_idle_span", "on_inject", "on_tx", "on_reception",
          "on_complete", "on_finish")


def overriders_of(
    observers: Sequence[SimObserver], hook: str
) -> List[SimObserver]:
    """Observers in ``observers`` that override ``hook``, in order."""
    if hook not in _HOOKS:
        raise ValueError(f"unknown observer hook {hook!r}")
    base = getattr(SimObserver, hook)
    return [ob for ob in observers if getattr(type(ob), hook) is not base]


class EventLogObserver(SimObserver):
    """Materialises the full :class:`EventLog` (``track_events`` mode)."""

    def __init__(self, log: Optional[EventLog] = None):
        self.log = log if log is not None else EventLog()

    def on_inject(self, t, packet):
        self.log.record(SimEvent(t, EventKind.INJECT, packet))

    def on_tx(self, t, batch, outcome, sleep_misses):
        record = self.log.record
        for tx in batch.to_transmissions():
            record(SimEvent(t, EventKind.TX, tx.packet, tx.sender, tx.receiver))
        for tx in outcome.collisions:
            record(
                SimEvent(t, EventKind.COLLISION, tx.packet, tx.sender, tx.receiver)
            )

    def on_reception(self, t, rec, is_duplicate):
        if is_duplicate:
            if not rec.overheard:
                self.log.record(
                    SimEvent(
                        t, EventKind.DUPLICATE, rec.packet, rec.sender, rec.receiver
                    )
                )
            return
        kind = EventKind.OVERHEAR if rec.overheard else EventKind.DELIVER
        self.log.record(SimEvent(t, kind, rec.packet, rec.sender, rec.receiver))

    def on_complete(self, t, packet):
        self.log.record(SimEvent(t, EventKind.COMPLETE, packet))


class PhaseProfiler(SimObserver):
    """Per-phase wall time and allocation metering for the slot pipeline.

    Unlike the other observers, the profiler does not watch simulation
    *events* — it watches the engine itself. The engine takes it as its
    ``profiler`` argument (:func:`~repro.sim.engine.run_flood` picks it
    out of ``observers`` by the ``phase_profiler`` marker attribute) and
    calls :meth:`note` with the wall seconds each phase consumed
    (``inject``, ``propose``, ``validate``, ``resolve``, ``apply``,
    ``observe``, ``fastforward``, and ``probe`` for the Fig. 9 probe
    floods as a whole). The link model adds a ``mac`` sub-phase
    *nested inside* ``resolve``: the :class:`~repro.net.mac.LinkModel`
    reports its own backoff/ack bookkeeping time there, net of the raw
    resolver calls it makes, so ``resolve`` stays the total and ``mac``
    is the layering overhead (recorded at zero for the ideal link). The
    engine also calls :meth:`note_slot` once per executed loop slot
    with the number of replications that executed and how many of them
    proposed nothing, so ``slots`` counts replication-slots,
    ``idle_slots`` the executed ones without traffic (what a loose
    fast-forward frontier costs), and ``loop_slots`` loop iterations.

    Allocation metering is sampled per loop slot:

    * ``sys.getallocatedblocks()`` deltas — the *net* live-block growth
      per slot. An allocation-free steady state nets ~0 here even
      before any interpreter-level tracing.
    * when :mod:`tracemalloc` is tracing (``repro profile`` enables it
      for its second pass), the per-slot traced high-water mark
      (``get_traced_memory`` + ``reset_peak``) — transient churn that
      net block counts cannot see.

    Attach at most one per run; ``run_flood`` uses the first observer
    carrying the marker.
    """

    #: Marker ``run_flood`` looks for (kept as a plain attribute so
    #: duck-typed stand-ins work in tests).
    phase_profiler = True

    #: Sub-phases nested inside a top-level phase's timing; excluded
    #: from the report's total so they are not double-counted.
    NESTED = frozenset({"mac"})

    def __init__(self, sample_allocs: bool = True):
        self.phase_seconds: Dict[str, float] = {}
        self.phase_calls: Dict[str, int] = {}
        #: Replication-slots executed (loop slots x batch width).
        self.slots = 0
        #: Executed replication-slots whose proposal came back empty.
        self.idle_slots = 0
        #: Loop iterations (== slots at R = 1).
        self.loop_slots = 0
        self._sample = bool(sample_allocs)
        self._tracing = self._sample and tracemalloc.is_tracing()
        self._blocks_prev: Optional[int] = None
        self.net_alloc_blocks = 0
        self.peak_alloc_bytes = 0

    def note(self, phase: str, dt: float) -> None:
        """Record ``dt`` wall seconds spent in ``phase``."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + dt
        self.phase_calls[phase] = self.phase_calls.get(phase, 0) + 1

    def note_slot(self, width: int = 1, idle: int = 0) -> None:
        """One engine loop slot finished; ``width`` replications ran,
        ``idle`` of them without traffic."""
        self.slots += int(width)
        self.idle_slots += int(idle)
        self.loop_slots += 1
        if self._sample:
            blocks = sys.getallocatedblocks()
            if self._blocks_prev is not None:
                self.net_alloc_blocks += blocks - self._blocks_prev
            self._blocks_prev = blocks
            if self._tracing:
                cur, peak = tracemalloc.get_traced_memory()
                if peak > cur:
                    self.peak_alloc_bytes += peak - cur
                tracemalloc.reset_peak()

    def report(self) -> dict:
        """Summarise the run as a JSON-ready dict."""
        # Nested sub-phases (e.g. "mac" inside "resolve") are already
        # counted in their parent's wall time.
        total = sum(
            secs for name, secs in self.phase_seconds.items()
            if name not in self.NESTED
        )
        phases = {
            name: {
                "seconds": round(secs, 6),
                "calls": self.phase_calls.get(name, 0),
                "share": round(secs / total, 4) if total else 0.0,
            }
            for name, secs in sorted(
                self.phase_seconds.items(), key=lambda kv: -kv[1]
            )
        }
        out = {
            "phases": phases,
            "total_seconds": round(total, 6),
            "loop_slots": self.loop_slots,
            "slots": self.slots,
            "idle_slots": self.idle_slots,
        }
        if self._sample and self.loop_slots:
            out["net_alloc_blocks_per_slot"] = round(
                self.net_alloc_blocks / self.loop_slots, 3
            )
            if self._tracing:
                out["peak_alloc_bytes_per_slot"] = round(
                    self.peak_alloc_bytes / self.loop_slots, 1
                )
        return out
