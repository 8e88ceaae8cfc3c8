"""Slot splitting: many short wake windows vs one long one.

The paper normalizes every schedule to one active slot per period
(Sec. III-A) and notes the general model only in passing. This
experiment asks the question the normalization hides: **at a fixed duty
ratio (fixed radio-on energy), does spreading the same wake budget over
more, shorter windows reduce flooding delay?** It is a scenario grid
over ``wake_slots``, all at duty ``1/20`` (``Scenario.period`` maps
``a`` wake slots to ``T = 20a``):

* ``a=1, T=20``  — the paper's normalized schedule;
* ``a=2, T=40``  — two wake slots per 40-slot period;
* ``a=4, T=80``  — four per 80.

Measured answer: **yes, once packets pipeline.** At full scale the
grid reads 6580 / 4952 / 5169 slots for ``a = 1 / 2 / 4`` (bench:
1339 / 1218 / 1041). It is not a sleep-latency effect: every
configuration wakes once per 20 slots on average, and on lossless,
collision-free links a lone packet floods *slower* on randomly placed
multi-slot schedules (irregular gaps, the renewal inspection paradox). The cut appears only when many
packets share each neighbour's wake slots; its mechanism is an open
finding (EXPERIMENTS.md records the decomposition).
"""

from __future__ import annotations

import numpy as np

from ..analysis.series import ExperimentResult, Series
from ..scenario import Scenario, ScenarioGrid
from ._common import DEFAULT_SEED, resolve_scale, run_grid, trace_spec

__all__ = ["run", "grid"]

DUTY_RATIO = 0.05

#: Wake slots per period compared at the fixed duty ratio.
WAKE_SLOTS = (1, 2, 4)


def grid(scale: str = "full", seed: int = DEFAULT_SEED) -> ScenarioGrid:
    """DBAO at duty 1/20 over the number of wake slots per period."""
    ts = resolve_scale(scale)
    return ScenarioGrid(
        base=Scenario(protocol="dbao", duty_ratio=DUTY_RATIO,
                      n_packets=ts.n_packets, seed=seed,
                      n_replications=ts.n_replications,
                      topology=trace_spec(scale, seed)),
        axes={"wake_slots": WAKE_SLOTS if scale != "smoke" else (1, 2)},
        name="slot-split",
    )


def run(scale: str = "full", seed: int = DEFAULT_SEED) -> ExperimentResult:
    ts = resolve_scale(scale)
    g = grid(scale, seed)
    summaries = run_grid(g)
    x = np.asarray([a for (a,) in g.combos()])
    return ExperimentResult(
        experiment_id="slot-split",
        title="Wake-budget splitting at fixed duty ratio (1/20)",
        series=[
            Series(label="avg delay", x=x,
                   y=np.asarray([s.mean_delay() for s in summaries])),
            Series(label="failures", x=x,
                   y=np.asarray([s.mean_failures() for s in summaries])),
        ],
        metadata={
            "configs": [f"a={c.wake_slots}, T={c.period}"
                        for c in g.scenarios()],
            "duty_ratio": DUTY_RATIO,
            "n_packets": ts.n_packets,
        },
    )
