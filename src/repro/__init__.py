"""repro — reproduction of *Understanding the Flooding in Low-Duty-Cycle
Wireless Sensor Networks* (Li, Li, Liu, Tang; ICPP 2011).

The package has six layers:

* :mod:`repro.core` — the paper's analytical results: FWL/FDL limits
  (Lemmas 2-3, Theorems 1-2, Table I, Corollary 1), the matrix-based
  flooding Algorithm 1, the Galton-Watson machinery behind Lemma 1, the
  k-class link-loss recurrence of Sec. IV-B, and the duty-cycle
  trade-off instrument sketched as future work.
* :mod:`repro.net` — the network substrate: lossy-link topologies (incl.
  the synthetic GreenOrbs 298-node trace), working schedules, packets,
  the semi-duplex collision radio, and local synchronization.
* :mod:`repro.sim` — the slot-stepped simulation engine, metrics (the
  paper's 99%-coverage delay rule), energy accounting, and the seeded
  experiment runner.
* :mod:`repro.protocols` — OPT / DBAO / OF from Sec. V plus naive, DCA
  and the cross-layer future-work sketch.
* :mod:`repro.exec` — pluggable execution backends (serial /
  process-pool parallel, bit-identical results) and a content-addressed
  result store shared by the runner, experiments and CLI.
* :mod:`repro.scenario` — the declarative layer: a frozen, serializable
  :class:`~repro.scenario.Scenario` spec (topology, schedule, protocol,
  workload, sim overrides) with a canonical content fingerprint, plus
  :class:`~repro.scenario.ScenarioGrid` sweeps loadable from JSON files
  (``repro run-scenario FILE.json``).

Quickstart::

    from repro import Scenario, run_experiment, synthesize_greenorbs

    topo = synthesize_greenorbs(seed=1)
    summary = run_experiment(
        topo, Scenario(protocol="dbao", duty_ratio=0.05, n_packets=10)
    )
    print(summary.mean_delay())
"""

from .exec import (
    ExecutionContext,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    configure_execution,
    execution_context,
    use_execution,
)
from .core import (
    fdl_theorem1,
    fdl_theorem2_bounds,
    fwl_lossy,
    fwl_reliable,
    knee_point,
    optimal_duty_cycle,
    predicted_delay,
    recurrence_hitting_time,
)
from .core.matrix_flood import MatrixFloodSimulator
from .net import (
    SOURCE,
    FloodWorkload,
    RadioModel,
    ScheduleTable,
    Topology,
    duty_ratio_to_period,
    grid_topology,
    random_geometric_topology,
    synthesize_greenorbs,
)
from .protocols import available_protocols, make_protocol
from .scenario import (
    Scenario,
    ScenarioGrid,
    TopologySpec,
    load_scenario_file,
)
from .sim import (
    RngStreams,
    RunSummary,
    SimConfig,
    run_experiment,
    run_experiments,
    run_flood,
    run_replication,
    run_scenarios,
)

__version__ = "1.0.0"

__all__ = [
    "fdl_theorem1", "fdl_theorem2_bounds", "fwl_lossy", "fwl_reliable",
    "knee_point", "optimal_duty_cycle", "predicted_delay",
    "recurrence_hitting_time", "MatrixFloodSimulator",
    "SOURCE", "FloodWorkload", "RadioModel", "ScheduleTable", "Topology",
    "duty_ratio_to_period", "grid_topology", "random_geometric_topology",
    "synthesize_greenorbs",
    "available_protocols", "make_protocol",
    "Scenario", "ScenarioGrid", "TopologySpec", "load_scenario_file",
    "RngStreams", "RunSummary", "SimConfig",
    "run_experiment", "run_experiments", "run_flood",
    "run_replication", "run_scenarios",
    "ExecutionContext", "ParallelExecutor", "ResultStore", "SerialExecutor",
    "configure_execution", "execution_context", "use_execution",
    "__version__",
]
