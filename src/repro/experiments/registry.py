"""Experiment registry: one callable per paper artifact.

``run_experiment_by_id("fig10", scale="bench")`` is how benchmarks,
tests, and the EXPERIMENTS.md generator all invoke experiments.

Every simulated experiment additionally registers its declarative
:class:`~repro.scenario.ScenarioGrid` builder in :data:`SCENARIO_GRIDS`
— ``scenario_grid("fig9", scale="smoke")`` is the same grid the
experiment runs, as serializable data (the ``examples/*.json`` scenario
files are these grids, saved). Only the analytic artifacts (fig3-7,
table1, lemma2, gain) have no grid entry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.series import ExperimentResult
from ..exec import use_execution
from ..scenario import ScenarioGrid
from . import ablations, fig3, fig5, fig6, fig7, fig9, fig10, fig11
from . import hetero, lemma2, mac_duty, skew, slot_split, table1, tradeoff_gain
from ._trace_sweep import trace_duty_grid

__all__ = ["EXPERIMENTS", "SCENARIO_GRIDS", "run_experiment_by_id",
           "experiment_ids", "scenario_grid", "scenario_grid_ids"]

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig3": fig3.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "table1": table1.run,
    "lemma2": lemma2.run,
    "gain": tradeoff_gain.run,
    "abl-collisions": ablations.run_collisions,
    "abl-overhearing": ablations.run_overhearing,
    "abl-opp-threshold": ablations.run_opp_threshold,
    "abl-data-overhearing": ablations.run_data_overhearing,
    "abl-bursty": ablations.run_bursty_links,
    "skew": skew.run,
    "hetero": hetero.run,
    "mac-duty": mac_duty.run,
    "slot-split": slot_split.run,
}

#: Declarative grid builders, ``(scale, seed) -> ScenarioGrid``. fig10
#: and fig11 share one grid (they render different metrics of the same
#: simulations — and therefore the same store entries).
SCENARIO_GRIDS: Dict[str, Callable[..., ScenarioGrid]] = {
    "fig9": fig9.grid,
    "fig10": trace_duty_grid,
    "fig11": trace_duty_grid,
    "hetero": hetero.grid,
    "mac-duty": mac_duty.grid,
    "abl-collisions": ablations.collisions_grid,
    "abl-overhearing": ablations.overhearing_grid,
    "abl-opp-threshold": ablations.opp_threshold_grid,
    "abl-data-overhearing": ablations.data_overhearing_grid,
    "abl-bursty": ablations.bursty_grid,
    "skew": skew.grid,
    "slot-split": slot_split.grid,
}


def scenario_grid(
    experiment_id: str,
    scale: str = "full",
    shard: Optional[Tuple[int, int]] = None,
    **kwargs,
) -> ScenarioGrid:
    """The declarative scenario grid behind a registered experiment.

    ``shard=(i, k)`` returns shard ``i`` of ``k`` (0-based) of the
    grid — the registry-level entry into sharded execution, equivalent
    to ``scenario_grid(id).shard(i, k)``: run each shard into its own
    cache directory and ``repro store merge`` them back.
    """
    try:
        builder = SCENARIO_GRIDS[experiment_id]
    except KeyError:
        raise KeyError(
            f"no scenario grid for {experiment_id!r}; "
            f"available: {sorted(SCENARIO_GRIDS)}"
        ) from None
    grid = builder(scale=scale, **kwargs)
    if shard is not None:
        index, count = shard
        grid = grid.shard(index, count)
    return grid


def scenario_grid_ids() -> List[str]:
    return sorted(SCENARIO_GRIDS)


def run_experiment_by_id(
    experiment_id: str,
    scale: str = "full",
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    **kwargs,
) -> ExperimentResult:
    """Run one registered experiment.

    ``jobs``/``cache_dir`` configure the execution context
    for the duration of the run (see :mod:`repro.exec`): ``jobs > 1``
    fans replications and sweep grids over a process pool, and
    ``cache_dir`` persists result summaries so a repeated invocation
    skips simulation entirely. All ``None`` (the default) leaves the
    caller's context untouched.
    """
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    with use_execution(jobs=jobs, cache_dir=cache_dir):
        return fn(scale=scale, **kwargs)


def experiment_ids() -> List[str]:
    return sorted(EXPERIMENTS)
