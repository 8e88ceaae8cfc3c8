"""Shared experiment infrastructure: scales, cached traces, execution.

Every experiment accepts a ``scale``:

* ``"full"`` — the paper's parameters (298-node trace, M = 100, ten duty
  ratios). Minutes of wall clock; used to produce EXPERIMENTS.md.
* ``"bench"`` — reduced sizes tuned so each pytest-benchmark target runs
  in seconds while preserving every qualitative shape.
* ``"smoke"`` — minimal sizes for the unit/integration test suite.

Simulated experiments run their declarative scenario grids through
:func:`run_grid`, so the CLI's ``--jobs``/``--cache-dir`` flags — which
install a :class:`repro.exec.ExecutionContext` — apply to every figure
uniformly.
Result memoization lives in the context's content-addressed
:class:`repro.exec.ResultStore`, not in per-function ``lru_cache``s:
within a process the store's memory layer deduplicates shared grids
(fig10/fig11), and with a cache directory configured results survive
across CLI invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exec import execution_context
from ..net.topology import Topology
from ..scenario import ScenarioGrid, TopologySpec, build_topology
from ..sim.runner import RunSummary, run_scenarios

__all__ = ["TraceScale", "SCALES", "get_trace", "trace_spec",
           "resolve_scale", "run_grid"]

#: Root seed of every experiment (the paper's publication year).
DEFAULT_SEED = 2011


@dataclass(frozen=True)
class TraceScale:
    """Per-scale simulation sizes."""

    name: str
    n_sensors: int
    n_packets: int
    duty_ratios: Tuple[float, ...]
    n_replications: int

    def __post_init__(self):
        if self.n_sensors < 2 or self.n_packets < 1 or self.n_replications < 1:
            raise ValueError(f"degenerate scale {self}")


SCALES: Dict[str, TraceScale] = {
    "full": TraceScale(
        name="full",
        n_sensors=298,
        n_packets=100,
        duty_ratios=(0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20),
        n_replications=1,
    ),
    # Three replications: at 2% duty a single draw can hand any protocol
    # an unlucky straggler cluster; the paper's M = 100 amortizes this,
    # the bench's M = 20 needs averaging instead.
    "bench": TraceScale(
        name="bench",
        n_sensors=298,
        n_packets=20,
        duty_ratios=(0.02, 0.05, 0.10, 0.20),
        n_replications=3,
    ),
    "smoke": TraceScale(
        name="smoke",
        n_sensors=120,
        n_packets=4,
        duty_ratios=(0.05, 0.20),
        n_replications=1,
    ),
}


def resolve_scale(scale: str) -> TraceScale:
    try:
        return SCALES[scale]
    except KeyError:
        raise KeyError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}") from None


def run_grid(grid: ScenarioGrid,
             topo: Optional[Topology] = None) -> List[RunSummary]:
    """Run a declarative scenario grid through the execution context.

    Summaries come back in the grid's expansion order (pair them with
    ``grid.combos()``); scenarios name their own topologies, with
    ``topo`` as the fallback substrate for any that don't.
    """
    ctx = execution_context()
    return run_scenarios(grid.scenarios(), executor=ctx.executor,
                         store=ctx.store, topo=topo,
                         reps_per_task=ctx.reps_per_task)


def trace_spec(scale: str = "full", seed: int = DEFAULT_SEED) -> TopologySpec:
    """Declarative description of the trace topology for a scale.

    ``full``/``bench`` describe the 298-node synthetic GreenOrbs trace;
    smoke shrinks the sensor count (the builder shrinks the plot area
    with it, preserving density) so the whole test suite stays fast.
    """
    ts = resolve_scale(scale)
    params = {} if ts.n_sensors == 298 else {"n_sensors": ts.n_sensors}
    return TopologySpec(kind="greenorbs", seed=seed, params=params)


def get_trace(scale: str = "full", seed: int = DEFAULT_SEED) -> Topology:
    """The trace topology for a scale, from the scenario layer's
    bounded build cache (:func:`repro.scenario.build_topology`: FIFO,
    maxsize 8 — every scale x seed pair a session realistically touches
    — replacing the old module-local ``lru_cache``). Repeated calls
    return the same object."""
    return build_topology(trace_spec(scale, seed))
