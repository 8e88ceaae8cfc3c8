"""Seeded multi-run experiment runner.

The Sec. V experiments sweep duty cycles and protocols over a fixed
topology, with several replications per configuration. The runner
standardizes that: one :class:`~repro.scenario.Scenario` per
configuration, paired random streams across protocols (same schedules
and loss draws for every protocol at the same replication index), and
summary aggregation.

One task function (:func:`_scenario_task`) serves direct calls,
declarative grids and scenario files alike. Work decomposes into
replication *stacks*: runs of consecutive replications, possibly
spanning several cells that share a :func:`scenario_stack_key`, each
simulated by one :func:`~repro.sim.batch.run_flood_batch` call
(:func:`run_replication_stack`). Stacks are mapped through an optional
:class:`repro.exec.Executor` (serial by default, warm process-pool
parallel on request); task payloads are cell/replication ranges — the
fixed topology and the scenario table broadcast once per dispatch, the
topology zero-copy via shared memory. Each replication derives its
schedule/channel/dynamics/jitter streams from ``(seed, rep)`` alone and
shares no RNG state, so any stacking, chunking or backend produces
**bit-identical** results. An optional :class:`repro.exec.ResultStore`
memoizes whole :class:`RunSummary` payloads by content (scenario
fingerprint + topology fingerprint + engine version), with whole grids
probed and recorded in one batched ``get_many``/``put_many`` round
trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..net.packet import FloodWorkload
from ..net.schedule import ScheduleTable
from ..net.sync import JitteredSchedules
from ..net.topology import Topology
from ..protocols.base import make_protocol
from ..scenario import Scenario, build_topology
from .batch import run_flood_batch
from .engine import FloodResult
from .rng import RngStreams, derive_seed

__all__ = ["RunSummary", "run_replication",
           "run_replication_chunk", "run_replication_stack",
           "scenario_stack_key", "run_experiment", "run_experiments",
           "run_scenarios", "load_scenario_summaries", "MissingResults"]

#: Widest replication chunk the auto policy hands one task — wide enough
#: to amortize per-slot dispatch across the batch (with every protocol
#: batch-native, the engine's per-slot cost is shared by the whole
#: stack), narrow enough that the (R, M, n) state stacks stay
#: cache-friendly.
_MAX_AUTO_REPS_PER_TASK = 128


@dataclass
class RunSummary:
    """Aggregated results of one scenario's replications."""

    spec: Scenario
    results: List[FloodResult]

    @property
    def n_runs(self) -> int:
        return len(self.results)

    def mean_delay(self) -> float:
        """Average per-packet flooding delay across replications."""
        vals = [r.metrics.average_delay() for r in self.results]
        vals = [v for v in vals if np.isfinite(v)]
        return float(np.mean(vals)) if vals else float("nan")

    def delay_ci(self, confidence: float = 0.95):
        """Student-t confidence interval of the mean delay.

        Returns an :class:`~repro.analysis.stats.MeanCI`; degenerates to
        a point for single-replication runs.
        """
        from ..analysis.stats import mean_ci

        vals = [r.metrics.average_delay() for r in self.results]
        return mean_ci(vals, confidence)

    def per_replication_delays(self) -> np.ndarray:
        """Raw per-replication mean delays (for paired comparisons)."""
        return np.asarray(
            [r.metrics.average_delay() for r in self.results],
            dtype=np.float64,
        )

    def mean_failures(self) -> float:
        return float(np.mean([r.metrics.tx_failures for r in self.results]))

    def mean_collisions(self) -> float:
        return float(np.mean([r.metrics.collisions for r in self.results]))

    def mean_tx_attempts(self) -> float:
        return float(np.mean([r.metrics.tx_attempts for r in self.results]))

    def completion_rate(self) -> float:
        """Fraction of replications in which every packet hit coverage."""
        return float(np.mean([r.completed for r in self.results]))

    def per_packet_delay(self) -> np.ndarray:
        """Replication-averaged per-packet delay curve (Fig. 9 series)."""
        curves = []
        for r in self.results:
            d = r.metrics.delays.total_delay().astype(np.float64)
            d[d < 0] = np.nan
            curves.append(d)
        with np.errstate(invalid="ignore"):
            return np.nanmean(np.vstack(curves), axis=0)

    def per_packet_transmission_delay(self) -> Optional[np.ndarray]:
        """Replication-averaged queueing-free delay curve (if measured)."""
        curves = []
        for r in self.results:
            td = r.metrics.transmission_delay
            if td is None:
                return None
            d = td.astype(np.float64)
            d[d < 0] = np.nan
            curves.append(d)
        with np.errstate(invalid="ignore"):
            return np.nanmean(np.vstack(curves), axis=0)


def _replication_inputs(topo: Topology, scenario: Scenario,
                        streams: RngStreams, rep: int):
    """One replication's believed and true schedules, channel stream and
    link dynamics, derived from ``(seed, rep)`` alone.

    The name-keyed :class:`RngStreams` derivation is order-independent,
    so a replication's inputs never depend on which task, stack or
    process builds them.
    """
    schedule_rng = streams.get(f"schedule/{rep}")
    schedules = ScheduleTable.random(
        topo.n_nodes, scenario.period, schedule_rng, scenario.wake_slots)
    true_schedules = None
    if scenario.schedule_jitter > 0.0:
        jitter_seed = int(
            derive_seed(scenario.seed, f"jitter/{rep}").generate_state(1)[0]
        )
        true_schedules = JitteredSchedules(
            schedules, scenario.schedule_jitter, jitter_seed
        )
    return (
        schedules,
        true_schedules,
        streams.get(f"channel/{rep}"),
        scenario.make_dynamics(topo, streams.get(f"dynamics/{rep}")),
    )


def scenario_stack_key(scenario: Scenario) -> str:
    """Grouping key for cross-cell replication stacking.

    Two scenarios with the same key can run their replications in one
    stacked ``(R_total, …)`` engine batch: they share the substrate
    contract, protocol (with kwargs), packet count and engine
    configuration, and differ only in the axes the engine carries per
    replication — duty ratio (wake period), seed (schedule / channel /
    dynamics / jitter streams) and generation interval (workload).
    """
    return replace(
        scenario, duty_ratio=1.0, seed=0, n_replications=1,
        generation_interval=0,
    ).fingerprint()


def run_replication_stack(
    topo: Topology, cells: Sequence[Tuple], profiler=None
) -> List[List[FloodResult]]:
    """Run several scenarios' replication ranges as ONE engine call.

    ``cells`` is a sequence of ``(scenario, rep_start, n_reps)``
    triples whose scenarios share a :func:`scenario_stack_key`. Their
    replications concatenate into one ``(R_total, …)``
    :func:`~repro.sim.batch.run_flood_batch` invocation with
    per-replication schedule, stream and workload rows — a whole
    Fig. 10 duty column becomes a single engine run. ``profiler`` (an
    optional :class:`~repro.sim.observers.PhaseProfiler`) is threaded
    into the engine — the ``repro profile`` hook.

    Returns one result list per cell, index-aligned with ``cells``; each
    replication is bit-identical to its standalone run.
    """
    if not cells:
        raise ValueError("stack must cover at least one cell")
    scenarios = [scenario for scenario, _, _ in cells]
    base = scenarios[0]
    inputs = []
    workloads: List[FloodWorkload] = []
    for scenario, (_, rep_start, n_reps) in zip(scenarios, cells):
        if n_reps < 1:
            raise ValueError(
                f"stack cell must cover at least one replication, got {n_reps}"
            )
        streams = RngStreams(scenario.seed)
        workload = FloodWorkload(
            scenario.n_packets, scenario.generation_interval
        )
        for rep in range(rep_start, rep_start + n_reps):
            inputs.append(_replication_inputs(topo, scenario, streams, rep))
            workloads.append(workload)
    schedules, true_schedules, channel_rngs, dynamics = zip(*inputs)
    # The stack key folds everything but the per-replication axes in
    # (the link model and probe switch included), so every stacked cell
    # shares the base's engine configuration.
    results = run_flood_batch(
        topo, schedules, workloads,
        make_protocol(base.protocol, **base.protocol_kwargs), channel_rngs,
        base.sim_config(), dynamics_list=dynamics, profiler=profiler,
        link=base.make_link_model(), true_schedules_list=true_schedules,
        measure_transmission_delay=base.measure_transmission_delay,
    )
    out: List[List[FloodResult]] = []
    pos = 0
    for _, _, n_reps in cells:
        out.append(results[pos:pos + n_reps])
        pos += n_reps
    return out


def run_replication_chunk(
    topo: Topology, spec: Scenario, rep_start: int, n_reps: int, profiler=None
) -> List[FloodResult]:
    """Replications ``rep_start .. rep_start + n_reps - 1`` of ``spec``,
    as one engine batch (a one-cell :func:`run_replication_stack`)."""
    return run_replication_stack(
        topo, [(spec, rep_start, n_reps)], profiler=profiler)[0]


def run_replication(topo: Topology, spec: Scenario, rep: int) -> FloodResult:
    """One replication of ``spec``: a pure function of its arguments."""
    return run_replication_chunk(topo, spec, rep, 1)[0]


def _scenario_task(topo: Topology, scenarios: Sequence[Scenario], cells):
    """The one broadcast-style task adapter for
    :meth:`repro.exec.Executor.map`.

    The payload is a stack: ``((scenario_index, rep_start, n_reps),
    ...)``. The topology and the scenario table broadcast once per
    dispatch (the topology zero-copy via shared memory), so a Monte
    Carlo grid's per-task pickle cost is a few ints instead of megabytes
    of substrate.
    """
    return run_replication_stack(
        topo, [(scenarios[i], start, count) for i, start, count in cells]
    )


def _require_scenarios(specs: Sequence) -> Tuple[Scenario, ...]:
    """``specs`` as a tuple, refusing anything but a :class:`Scenario`."""
    for spec in specs:
        if not isinstance(spec, Scenario):
            raise TypeError(
                f"expected a Scenario, got {type(spec).__name__!r}; build "
                f"one with Scenario(...) or Scenario.from_dict(...)"
            )
    return tuple(specs)


def _auto_reps_per_task(n_reps: int, jobs: int) -> int:
    """Default stack width for ``n_reps`` stackable replications.

    Wide chunks amortize the batched engine's per-slot dispatch, but a
    parallel backend still needs at least one chunk per worker to keep
    the pool busy — so the width is capped at ``ceil(n_reps / jobs)``.
    """
    if n_reps <= 1:
        return 1
    width = min(_MAX_AUTO_REPS_PER_TASK, n_reps)
    if jobs > 1:
        width = min(width, max(1, math.ceil(n_reps / jobs)))
    return width


def run_experiment(
    topo: Topology,
    spec: Scenario,
    executor=None,
    store=None,
    reps_per_task: Optional[int] = None,
) -> RunSummary:
    """Run one scenario's replications on a fixed topology.

    Stream pairing: schedules and channel draws are derived from
    ``(seed, replication)`` only — two specs differing in the protocol see
    identical wake patterns and loss randomness, so protocol comparisons
    are paired.

    Parameters
    ----------
    executor:
        Optional :class:`repro.exec.Executor` the per-replication tasks
        are mapped through; ``None`` runs them inline (serial).
    store:
        Optional :class:`repro.exec.ResultStore`; when supplied, a
        summary cached under this ``(spec, topo, engine)`` content key
        is returned without simulating, and fresh summaries are
        recorded.
    reps_per_task:
        Replications per dispatched task (see :func:`run_experiments`).
    """
    (summary,) = run_experiments(
        topo, [spec], executor=executor, store=store,
        reps_per_task=reps_per_task,
    )
    return summary


def run_experiments(
    topo: Topology,
    specs: Sequence[Scenario],
    executor=None,
    store=None,
    reps_per_task: Optional[int] = None,
) -> List[RunSummary]:
    """Run many scenarios' replications through one executor dispatch.

    The workhorse behind :func:`run_experiment` and
    :func:`run_scenarios`: store-cached specs are answered immediately,
    every remaining replication across *all* specs is flattened into a
    single ``executor.map`` call (so a parallel backend sees the whole
    grid at once, not one spec at a time), and results are regrouped
    per spec.

    ``reps_per_task`` controls how many replications ride in one task —
    one engine batch. ``None`` (auto) makes stacks up to
    ``min(128, ceil(n_reps / jobs))`` wide; an explicit value forces
    that width, and ``1`` runs one replication per task.

    Scenarios sharing a :func:`scenario_stack_key` (same protocol and
    engine configuration, differing only in duty ratio, seed or
    generation interval) *stack*: their replication streams concatenate
    and a task may span cell boundaries, so a whole duty column
    dispatches as a handful of tasks — one engine invocation each —
    instead of one task per cell. Stacking is execution policy: it never
    changes results, only throughput, so it is deliberately *not* part
    of the scenario fingerprint.
    """
    scenarios = _require_scenarios(specs)
    if reps_per_task is not None and reps_per_task < 1:
        raise ValueError(f"reps_per_task must be >= 1, got {reps_per_task}")
    keys: List[Optional[str]] = [None] * len(specs)
    summaries: List[Optional[RunSummary]] = [None] * len(specs)
    if store is not None:
        keys = [store.key_for(topo, scenario) for scenario in scenarios]
        cached = store.get_many(keys)
        summaries = [cached.get(key) for key in keys]

    jobs = getattr(executor, "jobs", 1) if executor is not None else 1
    tasks: List[Tuple[Tuple[int, int, int], ...]] = []
    widths: List[int] = []

    # Cross-cell stacking: pending scenarios group by stack key; each
    # group's replications form one concatenated stream, cut into
    # width-bounded stacks that may span cell boundaries.
    stack_groups: Dict[str, List[int]] = {}
    for i, scenario in enumerate(scenarios):
        if summaries[i] is None:
            stack_groups.setdefault(scenario_stack_key(scenario), []).append(i)

    for indices in stack_groups.values():
        total = sum(scenarios[i].n_replications for i in indices)
        if reps_per_task is not None:
            width = min(reps_per_task, total)
        else:
            width = _auto_reps_per_task(total, jobs)
        chunk: List[Tuple[int, int, int]] = []
        room = width
        for i in indices:
            n_reps = scenarios[i].n_replications
            start = 0
            while start < n_reps:
                take = min(room, n_reps - start)
                chunk.append((i, start, take))
                start += take
                room -= take
                if room == 0:
                    tasks.append(tuple(chunk))
                    widths.append(width)
                    chunk, room = [], width
        if chunk:
            tasks.append(tuple(chunk))
            widths.append(width - room)

    if tasks:
        if executor is None:
            results = [_scenario_task(topo, scenarios, task)
                       for task in tasks]
        else:
            results = executor.map(
                _scenario_task, tasks, broadcast=(topo, scenarios)
            )
            # Dispatch metering: tasks that merged several cells.
            merged = [len(task) for task in tasks if len(task) > 1]
            for stats in (executor.stats, executor.last):
                if stats is None:
                    continue
                stats.note_rep_batches(widths)
                if merged:
                    stats.note_stacks(len(merged), sum(merged))
        grouped: Dict[int, List[FloodResult]] = {}
        for task, result in zip(tasks, results):
            for (i, _, _), cell_results in zip(task, result):
                grouped.setdefault(i, []).extend(cell_results)
        fresh: Dict[str, RunSummary] = {}
        for i, flood_results in grouped.items():
            summaries[i] = RunSummary(spec=scenarios[i], results=flood_results)
            if store is not None:
                fresh[keys[i]] = summaries[i]
        if store is not None:
            store.put_many(fresh)
    return summaries  # type: ignore[return-value]


def _group_by_topology(
    scenarios: Sequence[Scenario], topo: Optional[Topology]
) -> List[Tuple[Topology, List[int]]]:
    """Resolve each scenario's topology and group indices by substrate.

    A scenario's own ``topology`` spec wins; ``topo`` stands in for
    scenarios that name none. Groups are keyed by topology fingerprint
    and come back in first-seen order.
    """
    groups: Dict[str, Tuple[Topology, List[int]]] = {}
    for i, scenario in enumerate(scenarios):
        if scenario.topology is not None:
            t = build_topology(scenario.topology)
        elif topo is not None:
            t = topo
        else:
            raise ValueError(
                f"scenario #{i} names no topology and no default was given"
            )
        groups.setdefault(t.fingerprint(), (t, []))[1].append(i)
    return list(groups.values())


def run_scenarios(
    scenarios: Sequence,
    executor=None,
    store=None,
    topo: Optional[Topology] = None,
    reps_per_task: Optional[int] = None,
) -> List[RunSummary]:
    """Run self-contained scenarios: topologies come from the specs.

    The scenario-file entry point (``repro run-scenario``). Each
    scenario names its substrate through its ``topology``
    :class:`~repro.scenario.TopologySpec` (or inherits ``topo`` when it
    doesn't); scenarios sharing a substrate are grouped into one
    :func:`run_experiments` dispatch per distinct topology, so the warm
    pool sees whole grids and each topology is broadcast once. Results
    come back in input order.
    """
    scenarios = _require_scenarios(scenarios)
    summaries: List[Optional[RunSummary]] = [None] * len(scenarios)
    for t, indices in _group_by_topology(scenarios, topo):
        batch = run_experiments(
            t, [scenarios[i] for i in indices], executor=executor,
            store=store, reps_per_task=reps_per_task,
        )
        for i, summary in zip(indices, batch):
            summaries[i] = summary
    return summaries  # type: ignore[return-value]


class MissingResults(LookupError):
    """A store-only load found cells with no stored result.

    Raised by :func:`load_scenario_summaries`; ``missing`` holds
    ``(index, scenario)`` pairs for every absent cell so callers can say
    exactly which shard still has to run.
    """

    def __init__(self, missing):
        self.missing = list(missing)
        cells = ", ".join(
            f"#{i} {s.fingerprint()[:16]}" for i, s in self.missing[:5]
        )
        more = f" (+{len(self.missing) - 5} more)" if len(self.missing) > 5 \
            else ""
        super().__init__(
            f"{len(self.missing)} cell(s) have no stored result: "
            f"{cells}{more} — run the missing shard(s) first, or merge "
            f"their stores into this cache directory"
        )


def load_scenario_summaries(
    scenarios: Sequence,
    store,
    topo: Optional[Topology] = None,
) -> List[RunSummary]:
    """Answer scenarios purely from a :class:`~repro.exec.ResultStore`.

    The reporting half of the sharded-execution story
    (``repro report``): never simulates, never needs an executor — it
    resolves each scenario's topology exactly like :func:`run_scenarios`
    (so content keys match the ones the run stamped), batches
    ``get_many`` per substrate, and raises :class:`MissingResults`
    naming every absent cell. On a store produced by ``repro store
    merge`` over k shard runs, this returns summaries bit-identical to
    the unsharded run's (the entries *are* the shard runs' pickles).
    """
    scenarios = _require_scenarios(scenarios)
    summaries: List[Optional[RunSummary]] = [None] * len(scenarios)
    for t, indices in _group_by_topology(scenarios, topo):
        keys = [store.key_for(t, scenarios[i]) for i in indices]
        cached = store.get_many(keys)
        for i, key in zip(indices, keys):
            summaries[i] = cached.get(key)
    missing = [(i, scenarios[i]) for i, s in enumerate(summaries)
               if s is None]
    if missing:
        raise MissingResults(missing)
    return summaries  # type: ignore[return-value]
