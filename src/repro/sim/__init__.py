"""Discrete-event (slot-stepped) simulation engine and instrumentation."""

from .energy import EnergyLedger, energy_summary
from .engine import FloodResult, SimConfig, run_flood
from .events import EventKind, EventLog, SimEvent
from .metrics import FloodMetrics, PacketDelays, coverage_threshold
from .observers import EventLogObserver, SimObserver
from .rng import RngStreams, derive_seed, spawn_generator
from .runner import (
    RunSummary,
    run_experiment,
    run_experiments,
    run_replication,
    run_scenarios,
)

__all__ = [
    "EnergyLedger", "energy_summary",
    "FloodResult", "SimConfig", "run_flood",
    "EventKind", "EventLog", "SimEvent",
    "FloodMetrics", "PacketDelays", "coverage_threshold",
    "SimObserver", "EventLogObserver",
    "RngStreams", "derive_seed", "spawn_generator",
    "RunSummary", "run_experiment", "run_experiments",
    "run_replication", "run_scenarios",
]
