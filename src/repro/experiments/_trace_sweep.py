"""Shared trace-driven duty-cycle sweep backing Figs. 10 and 11.

Both figures come from the same declarative :class:`ScenarioGrid`
(protocols x duty ratios on the GreenOrbs trace). The grid runs through
the process-wide :class:`repro.exec.ExecutionContext`: the executor fans
every ``(protocol, duty, replication)`` task out in one dispatch — the
trace topology broadcasts to the warm worker pool once, via shared
memory — and the content-addressed result store answers the whole grid
through one batched ``get_many``/``put_many`` round trip. fig10
computes the grid, fig11 is answered entirely from the store (and, with
a cache directory configured, so is the next CLI invocation). Because
store keys hash the *serialized* scenarios, ``repro run-scenario`` on
an equivalent scenario file hits the same entries.
"""

from __future__ import annotations

from typing import Dict

from ..scenario import Scenario, ScenarioGrid
from ..sim.runner import RunSummary
from ._common import DEFAULT_SEED, resolve_scale, run_grid, trace_spec

__all__ = ["trace_duty_sweep", "trace_duty_grid", "PROTOCOLS"]

#: The paper's three evaluation protocols, best-expected first.
PROTOCOLS = ("opt", "dbao", "of")


def trace_duty_grid(scale: str = "full", seed: int = DEFAULT_SEED) -> ScenarioGrid:
    """The Figs. 10/11 grid: protocols x duty ratios on the trace."""
    ts = resolve_scale(scale)
    return ScenarioGrid(
        base=Scenario(
            protocol=PROTOCOLS[0],
            duty_ratio=ts.duty_ratios[0],
            n_packets=ts.n_packets,
            seed=seed,
            n_replications=ts.n_replications,
            topology=trace_spec(scale, seed),
        ),
        axes={"protocol": PROTOCOLS, "duty_ratio": ts.duty_ratios},
        name="trace-duty-sweep",
    )


def trace_duty_sweep(
    scale: str = "full", seed: int = DEFAULT_SEED
) -> Dict[str, Dict[float, RunSummary]]:
    """Protocols x duty ratios grid on the trace topology (store-cached)."""
    grid = trace_duty_grid(scale, seed)
    summaries = run_grid(grid)
    out: Dict[str, Dict[float, RunSummary]] = {p: {} for p in PROTOCOLS}
    for (proto, duty), summary in zip(grid.combos(), summaries):
        out[proto][duty] = summary
    return out
