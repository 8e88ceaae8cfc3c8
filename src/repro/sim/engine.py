"""The slot-stepped low-duty-cycle flooding simulator, one flood at a time.

One :func:`run_flood` call simulates the paper's Sec. V setup end to
end: per original-time slot, packets are injected, the protocol
proposes a transmission batch over the waking receivers, the batch is
validated against the model's hard constraints, the channel is resolved
(collisions, capture, loss, overhearing), and possession and protocol
beliefs are updated; provably quiescent slots are skipped in one jump.
The run ends when every packet has reached the coverage target (the
paper's 99% rule) or the horizon expires.

:func:`run_flood` is :func:`~repro.sim.batch.run_flood_batch` at R = 1 —
one engine serves single floods and replication stacks alike. Counters
and the energy ledger are engine state; everything that merely watches
a flood — the optional event log, tracing, user metrics — is an
observer (:mod:`repro.sim.observers`), plugged in via
``run_flood(..., observers=[...])``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..net.mac import LinkModel
from ..net.packet import FloodWorkload
from ..net.radio import RadioModel
from ..net.schedule import ScheduleTable
from ..net.topology import Topology
from ..protocols.base import FloodingProtocol
from .energy import EnergyLedger
from .events import EventLog
from .metrics import FloodMetrics
from .observers import SimObserver

__all__ = ["ENGINE_VERSION", "SimConfig", "FloodResult", "run_flood"]

#: Simulation-semantics version, folded into every
#: :mod:`repro.exec.store` cache key. Bump whenever a change alters
#: simulated trajectories (RNG consumption order, channel resolution,
#: metric definitions, ...) so stale cached results can never be served.
ENGINE_VERSION = "2011.2"


@dataclass(frozen=True)
class SimConfig:
    """Engine configuration.

    Attributes
    ----------
    coverage_target:
        Fraction of source-reachable sensors that must hold a packet for
        it to count as delivered (paper default: 0.99).
    max_slots:
        Simulation horizon; ``None`` derives a generous bound from the
        problem size.
    radio:
        Channel behaviour (collisions/capture/overhearing/lossless).
    track_events:
        Keep a full :class:`~repro.sim.events.EventLog` (memory-heavy).
    fast_forward:
        Skip provably-quiescent slots in one jump (the paper's compact
        time scale, Sec. IV-A): after an idle slot the engine asks the
        protocol's quiescence contract
        (:meth:`~repro.protocols.base.FloodingProtocol.next_action_slots`)
        for the next slot with possible traffic and fast-forwards to it,
        advancing link dynamics and energy accounting exactly.
        Trajectories are bit-identical either way — this is purely a
        performance switch, kept so the equivalence is testable.
    """

    coverage_target: float = 0.99
    max_slots: Optional[int] = None
    radio: RadioModel = field(default_factory=RadioModel)
    track_events: bool = False
    fast_forward: bool = True

    def __post_init__(self):
        if not (0.0 < self.coverage_target <= 1.0):
            raise ValueError(
                f"coverage target must be in (0, 1], got {self.coverage_target}"
            )
        if self.max_slots is not None and self.max_slots < 1:
            raise ValueError(
                f"max_slots must be at least one slot, got {self.max_slots}")


@dataclass
class FloodResult:
    """Everything a flood run produced."""

    metrics: FloodMetrics
    has: np.ndarray
    arrival: np.ndarray
    ledger: EnergyLedger
    events: Optional[EventLog]
    completed: bool

    @property
    def possession(self) -> np.ndarray:
        """Alias for the final (M, n_nodes) possession matrix."""
        return self.has


def run_flood(
    topo: Topology,
    schedules: ScheduleTable,
    workload: FloodWorkload,
    protocol: FloodingProtocol,
    rng: np.random.Generator,
    config: Optional[SimConfig] = None,
    measure_transmission_delay: bool = False,
    dynamics=None,
    true_schedules: Optional[ScheduleTable] = None,
    observers: Sequence[SimObserver] = (),
    link: Optional[LinkModel] = None,
) -> FloodResult:
    """Simulate one flood of ``workload.n_packets`` packets.

    Parameters
    ----------
    topo, schedules, workload:
        The static substrate; ``len(schedules)`` must match the topology.
    protocol:
        A fresh protocol instance (protocols carry per-run state).
    rng:
        Stream for channel losses and protocol randomness.
    config:
        Engine configuration (defaults to the paper's).
    measure_transmission_delay:
        Additionally flood each packet in isolation (same substrate,
        forked loss streams) to measure the queueing-free transmission
        delay — the Fig. 9 decomposition.
    dynamics:
        Optional :class:`~repro.net.dynamics.GilbertElliott` bursty-link
        state, stepped once per slot and consulted on every success draw.
    true_schedules:
        Clock-skew injection: ``schedules`` is what the protocol *believes*
        (the advertised working schedules from local synchronization);
        ``true_schedules`` is when radios are really on. Transmissions to
        nodes the sender believed awake but that are actually dormant are
        counted as ``sleep_misses`` (plus ordinary failures) instead of
        protocol errors. Default: no skew — the paper's perfectly
        locally-synchronized model.
    observers:
        Extra :class:`~repro.sim.observers.SimObserver` instances hooked
        into the slot loop after the built-in event log. Observers
        watch; they must not mutate simulation state. A
        :class:`~repro.sim.observers.PhaseProfiler` among them times the
        engine's phases.
    link:
        The :class:`~repro.net.mac.LinkModel` resolving every traffic
        slot. Default: :class:`~repro.net.mac.IdealCsmaLink`, the
        paper's one-winner CSMA oracle.
    """
    from .batch import run_flood_batch

    observers = list(observers)
    profiler = next(
        (ob for ob in observers if getattr(ob, "phase_profiler", False)),
        None,
    )
    (result,) = run_flood_batch(
        topo, [schedules], workload, protocol, [rng], config,
        dynamics_list=None if dynamics is None else [dynamics],
        profiler=profiler, link=link,
        true_schedules_list=[true_schedules], observers_list=[observers],
        measure_transmission_delay=measure_transmission_delay,
    )
    return result
