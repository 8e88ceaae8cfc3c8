"""Clock-skew sensitivity of low-duty-cycle flooding.

The paper assumes *local synchronization*: every sender knows exactly
when each neighbor wakes (Sec. III-B, citing low-cost sync protocols).
This experiment quantifies what that assumption is worth: per-node clock
skew is injected between the advertised schedules (what senders plan
against) and the true radio-on times, and DBAO floods the trace at 5%
duty for increasing skew magnitudes — a scenario grid over
``schedule_jitter``.

A skewed transmission can hit a dormant radio (a *sleep miss*), costing
a full period before the retry; with skew beyond the slot width the
network degrades toward blind transmission. The result motivates the
paper's citation of sub-slot synchronization schemes.
"""

from __future__ import annotations

import numpy as np

from ..analysis.series import ExperimentResult, Series
from ..scenario import Scenario, ScenarioGrid
from ._common import DEFAULT_SEED, resolve_scale, run_grid, trace_spec

__all__ = ["run", "grid"]

DUTY_RATIO = 0.05

#: Per-wake jitter probability levels: with probability ``p`` a node's
#: actual wake this period lands one slot off its advertised slot
#: (uniformly early or late) — the residual error of an imperfect sync
#: protocol. ``p = 0`` is the paper's model.
SKEW_LEVELS = (0.0, 0.1, 0.3, 0.6)


def grid(scale: str = "full", seed: int = DEFAULT_SEED) -> ScenarioGrid:
    """DBAO at 5% duty over per-wake jitter probabilities."""
    ts = resolve_scale(scale)
    return ScenarioGrid(
        base=Scenario(protocol="dbao", duty_ratio=DUTY_RATIO,
                      n_packets=ts.n_packets, seed=seed,
                      n_replications=ts.n_replications,
                      topology=trace_spec(scale, seed)),
        axes={"schedule_jitter":
              SKEW_LEVELS if scale != "smoke" else (0.0, 0.3)},
        name="skew",
    )


def run(scale: str = "full", seed: int = DEFAULT_SEED) -> ExperimentResult:
    ts = resolve_scale(scale)
    g = grid(scale, seed)
    summaries = run_grid(g)
    x = np.asarray([level for (level,) in g.combos()])
    misses = [np.mean([r.metrics.sleep_misses for r in s.results])
              for s in summaries]
    return ExperimentResult(
        experiment_id="skew",
        title="Clock-skew sensitivity (value of local synchronization)",
        series=[
            Series(label="avg delay", x=x,
                   y=np.asarray([s.mean_delay() for s in summaries])),
            Series(label="sleep misses", x=x, y=np.asarray(misses)),
            Series(label="completion rate", x=x,
                   y=np.asarray([s.completion_rate() for s in summaries])),
        ],
        metadata={"duty_ratio": DUTY_RATIO, "n_packets": ts.n_packets},
    )
