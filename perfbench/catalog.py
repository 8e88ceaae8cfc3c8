"""What the benchmark runs and what it reports.

``BENCHMARK.json`` at the repository root mirrors the names, units and
directions below (``run.py --self-test`` checks that it does). This
module additionally records, for every per-layer metric, the end-to-end
metric it should move and the workload where that shows, so later
changes can cite metric names instead of prose.

Workloads are grids shaped like the paper's Sec. V evaluation. The
workload seed drives every scenario's ``seed`` (schedules, channel
draws, dynamics); the substrates stay the committed ones (GreenOrbs
trace seed 2011, the registered ``mac-duty`` bench deployment), so a
seed changes the randomness a grid sees, not the network it runs on.
"""

from __future__ import annotations

DEFAULT_SEED = 2011

#: The 120-sensor GreenOrbs trace substrate of Figs. 9-11.
_TRACE = {"kind": "greenorbs", "seed": 2011, "params": {"n_sensors": 120}}

#: The registered mac-duty bench deployment: 60 nodes, density-matched
#: to the 30-node / 180 m substrate (area 180 * sqrt(60 / 30) m).
_MAC_DEPLOYMENT = {
    "kind": "geometric", "seed": 2011,
    "params": {"n_nodes": 60, "area_m": 254.6, "placement": "uniform"},
}

#: name -> why, CLI shape and grid. ``reps`` is the replication count per
#: cell, sized so one CLI-shaped invocation takes a few seconds on a
#: 2-core host and a run holds several invocations. ``cache`` runs with
#: ``--cache-dir`` and reads the results back the way ``repro report``
#: does.
WORKLOADS = {
    "fig10-grid": {
        "why": "the paper's Fig. 10/11 grid as users run it: batched "
               "engine in wide stacks, warm pool, shared-memory broadcast, "
               "store writes and the report read-back",
        "jobs": 2,
        "cache": True,
        "reps": 24,
        "base": {"protocol": "opt", "duty_ratio": 0.02, "n_packets": 4,
                 "topology": _TRACE},
        "axes": {"protocol": ["opt", "dbao", "of"],
                 "duty_ratio": [0.02, 0.05, 0.1, 0.2]},
    },
    "fig9-probe": {
        "why": "Fig. 9 probe floods are not rep-batchable, so every "
               "replication runs the serial engine; the bypass workload "
               "for every batched-path change",
        "jobs": 1,
        "cache": False,
        "reps": 6,
        "base": {"protocol": "opt", "duty_ratio": 0.05, "n_packets": 4,
                 "measure_transmission_delay": True, "topology": _TRACE},
        "axes": {"protocol": ["opt", "dbao", "of"]},
    },
    "mac-duty": {
        "why": "the only workload where net.mac does real work (802.15.4 "
               "CSMA micro-rounds); its ideal-MAC half is the in-workload "
               "control",
        "jobs": 1,
        "cache": False,
        "reps": 24,
        "base": {"protocol": "dbao", "duty_ratio": 0.02, "n_packets": 4,
                 "topology": _MAC_DEPLOYMENT},
        "axes": {"duty_ratio": [0.02, 0.05, 0.1, 0.2],
                 "mac": ["ideal", "csma_802154"]},
    },
}


def grid_for(workload: str, seed: int, reps: int) -> dict:
    """The scenario-file dict (``repro.scenario`` schema 1) of a workload."""
    spec = WORKLOADS[workload]
    return {
        "schema": 1,
        "name": workload,
        "scenario": dict(spec["base"], seed=int(seed),
                         n_replications=int(reps)),
        "axes": {k: list(v) for k, v in spec["axes"].items()},
    }


def n_cells(workload: str) -> int:
    n = 1
    for values in WORKLOADS[workload]["axes"].values():
        n *= len(values)
    return n


#: (name, unit, better, bound, definition). Measured with tracing off,
#: one value per CLI-shaped invocation, reported as the run's median.
#: ``bound`` is the share of the parent's median a metric may worsen by.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "process spawn until the grid is loaded, its topology built and, for "
     "--jobs 2, the pool armed; includes import repro"),
    ("wall_s", "s", "lower", 0.25,
     "first dispatch until the verified digest: run, store write, the "
     "report read-back (fig10-grid) and grid_digest"),
    ("reps_per_s", "1/s", "higher", 0.25,
     "replications completed / wall_s"),
    ("cpu_s", "s", "lower", 0.25,
     "CPU seconds of the run process plus its workers during wall_s"),
    ("peak_rss_mb", "MiB", "lower", 0.1,
     "peak RSS of the run process or of any worker"),
]

#: Cells that raised, or whose digest row differs from the pinned (or,
#: for unpinned seeds, the run's first) row, over cells attempted. It is
#: printed and carried by the result's ``failed``/``attempted`` counts;
#: it is not an end-to-end metric because it reads 0 when all is well.
FAILED_FRAC = ("cells_failed_frac", "ratio")

_ALL = ("fig10-grid", "fig9-probe", "mac-duty")

#: (name, unit, better, moves, on). From the traced run: spans timed
#: around public callables from this package, plus the program's own
#: counters. Self time is a span minus its child spans.
PER_LAYER = [
    ("scenario.import_s", "s", "lower", "setup_s", _ALL),
    ("scenario.load_s", "s", "lower", "setup_s", _ALL),
    ("scenario.build_topology_s", "s", "lower", "setup_s", _ALL),
    ("exec.executor.map_s", "s", "lower", "wall_s", ("fig10-grid",)),
    ("exec.executor.parallel_efficiency", "ratio", "higher", "wall_s",
     ("fig10-grid",)),
    ("exec.executor.task_imbalance", "ratio", "lower", "wall_s",
     ("fig10-grid",)),
    ("exec.executor.task_s", "s", "lower", "cpu_s", ("fig10-grid",)),
    ("exec.executor.tasks", "count", "lower", "cpu_s", ("fig10-grid",)),
    ("exec.executor.pickled_bytes", "B", "lower", "cpu_s", ("fig10-grid",)),
    ("exec.executor.shared_bytes", "B", "lower", "cpu_s", ("fig10-grid",)),
    ("exec.executor.spinup_s", "s", "lower", "setup_s", ("fig10-grid",)),
    ("exec.executor.batch_coverage", "ratio", "higher", "wall_s",
     ("fig9-probe",)),
    ("exec.store.key_for_s", "s", "lower", "wall_s", ("fig10-grid",)),
    ("exec.store.put_many_s", "s", "lower", "wall_s", ("fig10-grid",)),
    ("exec.store.get_many_s", "s", "lower", "wall_s", ("fig10-grid",)),
    ("exec.store.bytes_written", "B", "lower", "wall_s", ("fig10-grid",)),
    ("exec.store.hits", "count", "higher", "wall_s", ("fig10-grid",)),
    ("exec.store.misses", "count", "lower", "wall_s", ("fig10-grid",)),
    ("exec.store.rejected", "count", "lower", "wall_s", ("fig10-grid",)),
    ("sim.runner.self_s", "s", "lower", "wall_s", _ALL),
    ("sim.batch.s", "s", "lower", "wall_s", ("fig10-grid", "mac-duty")),
    ("sim.batch.self_s", "s", "lower", "wall_s", ("fig10-grid", "mac-duty")),
    ("sim.batch.calls", "count", "lower", "wall_s",
     ("fig10-grid", "mac-duty")),
    ("sim.batch.width_mean", "reps", "higher", "reps_per_s",
     ("fig10-grid", "mac-duty")),
    ("sim.batch.executed_slot_frac", "ratio", "lower", "reps_per_s",
     ("fig10-grid", "mac-duty")),
]

#: PhaseProfiler phases of the serial engine; the batched engine also
#: times protocol observation as a phase of its own.
ENGINE_PHASES = ("inject", "propose", "validate", "resolve", "apply",
                 "fastforward")
BATCH_PHASES = ENGINE_PHASES + ("observe",)

PER_LAYER += [
    (f"sim.batch.phase.{p}_s", "s", "lower", "wall_s", ("fig10-grid",))
    for p in BATCH_PHASES
]
PER_LAYER += [
    ("sim.engine.s", "s", "lower", "wall_s", ("fig9-probe",)),
    ("sim.engine.self_s", "s", "lower", "wall_s", ("fig9-probe",)),
    ("sim.engine.calls", "count", "lower", "wall_s", ("fig9-probe",)),
    ("sim.engine.executed_slot_frac", "ratio", "lower", "wall_s",
     ("fig9-probe",)),
]
PER_LAYER += [
    (f"sim.engine.phase.{p}_s", "s", "lower", "wall_s", ("fig9-probe",))
    for p in ENGINE_PHASES
]
PER_LAYER += [
    ("protocols.propose_s", "s", "lower", "wall_s",
     ("fig10-grid", "fig9-probe")),
    ("protocols.propose_calls", "count", "lower", "wall_s",
     ("fig10-grid", "fig9-probe")),
    ("protocols.next_action_s", "s", "lower", "wall_s", ("fig10-grid",)),
    ("protocols.next_action_calls", "count", "lower", "wall_s",
     ("fig10-grid",)),
    ("protocols.observe_s", "s", "lower", "wall_s", ("fig9-probe",)),
    ("net.mac.self_s", "s", "lower", "wall_s", ("mac-duty",)),
    ("net.radio.resolve_s", "s", "lower", "wall_s", _ALL),
    ("net.radio.resolve_calls", "count", "lower", "wall_s", _ALL),
    ("sim.arena.borrows", "count", "lower", "wall_s",
     ("fig10-grid", "mac-duty")),
    ("sim.arena.grows", "count", "lower", "peak_rss_mb",
     ("fig10-grid", "mac-duty")),
    ("sim.arena.borrows_per_slot", "count", "lower", "wall_s",
     ("fig10-grid", "mac-duty")),
    ("analysis.digest_s", "s", "lower", "wall_s", _ALL),
    # Traced / untraced wall_s - 1: not a cost of the program, but how
    # far the spans above can be trusted.
    ("trace.overhead_frac", "ratio", "lower", "none", _ALL),
]
