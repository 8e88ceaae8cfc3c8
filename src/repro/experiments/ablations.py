"""Design-choice ablations called out in DESIGN.md.

* ``collisions`` — run DBAO with the collision model disabled: how much
  of the DBAO-to-OPT gap is pure contention (the paper attributes the gap
  to hidden terminals; with collisions off, DBAO should close most of it).
* ``overhearing`` — DBAO with the overhearing suppression off: quantifies
  the energy/contention cost of losing the "O" in DBAO.
* ``opp-threshold`` — OF's opportunistic quantile swept: small quantiles
  approach pure tree flooding (slow, cheap), large ones approach
  unsuppressed opportunism (fast, contentious).
* ``bursty`` — Gilbert-Elliott bursty links vs a static twin with the
  same long-run mean PRR (the paper assumes independent loss).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Tuple

import numpy as np

from ..analysis.series import ExperimentResult, Series
from ..net.dynamics import GeParams
from ..scenario import Scenario, ScenarioGrid
from ._common import DEFAULT_SEED, resolve_scale, run_grid, trace_spec

__all__ = [
    "run_collisions",
    "run_overhearing",
    "run_opp_threshold",
    "run_data_overhearing",
    "run_bursty_links",
]

DUTY_RATIO = 0.05


def _dbao_grid(scale: str, seed: int, name: str,
               axes: Dict[str, Tuple[Any, ...]]) -> ScenarioGrid:
    """A DBAO-at-5%-duty grid over one declarative axis."""
    ts = resolve_scale(scale)
    return ScenarioGrid(
        base=Scenario(protocol="dbao", duty_ratio=DUTY_RATIO,
                      n_packets=ts.n_packets, seed=seed,
                      topology=trace_spec(scale, seed)),
        axes=axes,
        name=name,
    )


def collisions_grid(scale: str = "full", seed: int = DEFAULT_SEED) -> ScenarioGrid:
    return _dbao_grid(scale, seed, "abl-collisions", {
        "sim": ({}, {"radio": {"collisions": False}}),
    })


def run_collisions(scale: str = "full", seed: int = DEFAULT_SEED) -> ExperimentResult:
    labels = ["collisions on", "collisions off"]
    summaries = run_grid(collisions_grid(scale, seed))
    rows = {label: (s.mean_delay(), s.mean_failures())
            for label, s in zip(labels, summaries)}
    x = np.asarray([0, 1])
    return ExperimentResult(
        experiment_id="abl-collisions",
        title="Ablation: DBAO with/without the collision model",
        series=[
            Series(label="avg delay", x=x,
                   y=np.asarray([rows[l][0] for l in labels])),
            Series(label="failures", x=x,
                   y=np.asarray([rows[l][1] for l in labels])),
        ],
        metadata={"x_labels": labels, "rows": rows},
    )


def overhearing_grid(scale: str = "full", seed: int = DEFAULT_SEED) -> ScenarioGrid:
    return _dbao_grid(scale, seed, "abl-overhearing", {
        "protocol_kwargs": ({"overhearing": True}, {"overhearing": False}),
    })


def run_overhearing(scale: str = "full", seed: int = DEFAULT_SEED) -> ExperimentResult:
    labels = ["overhearing on", "overhearing off"]
    summaries = run_grid(overhearing_grid(scale, seed))
    rows = {label: (s.mean_delay(), s.mean_failures(), s.mean_tx_attempts())
            for label, s in zip(labels, summaries)}
    x = np.asarray([0, 1])
    return ExperimentResult(
        experiment_id="abl-overhearing",
        title="Ablation: DBAO with/without overhearing suppression",
        series=[
            Series(label="avg delay", x=x,
                   y=np.asarray([rows[l][0] for l in labels])),
            Series(label="tx attempts", x=x,
                   y=np.asarray([rows[l][2] for l in labels])),
        ],
        metadata={"x_labels": labels, "rows": rows},
    )


def data_overhearing_grid(
    scale: str = "full", seed: int = DEFAULT_SEED
) -> ScenarioGrid:
    return _dbao_grid(scale, seed, "abl-data-overhearing", {
        "sim": ({}, {"radio": {"overhearing": True}}),
    })


def run_data_overhearing(
    scale: str = "full", seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Future-work direction 2's headroom: let data frames be overheard.

    The paper's unicast model forbids bystander reception; the cross-layer
    design exploits it. This ablation runs DBAO on both channels and
    quantifies how much delay the broadcast nature of the medium buys once
    a protocol is co-designed for it.
    """
    labels = ["unicast (paper model)", "data overhearing on"]
    summaries = run_grid(data_overhearing_grid(scale, seed))
    rows = {label: (s.mean_delay(), s.mean_tx_attempts())
            for label, s in zip(labels, summaries)}
    x = np.asarray([0, 1])
    return ExperimentResult(
        experiment_id="abl-data-overhearing",
        title="Ablation: unicast channel vs data overhearing (DBAO)",
        series=[
            Series(label="avg delay", x=x,
                   y=np.asarray([rows[l][0] for l in labels])),
            Series(label="tx attempts", x=x,
                   y=np.asarray([rows[l][1] for l in labels])),
        ],
        metadata={"x_labels": labels, "rows": rows},
    )


def bursty_grid(scale: str = "full", seed: int = DEFAULT_SEED) -> ScenarioGrid:
    """DBAO at 5% duty: {trace, mean-matched static twin} x link model."""
    ts = resolve_scale(scale)
    trace = trace_spec(scale, seed)
    return ScenarioGrid(
        base=Scenario(protocol="dbao", duty_ratio=DUTY_RATIO,
                      n_packets=ts.n_packets, seed=seed,
                      n_replications=ts.n_replications, topology=trace),
        axes={
            "topology": (trace, replace(trace, transform="ge_mean_matched")),
            "link_model": ("static", "gilbert_elliott"),
        },
        name="abl-bursty",
    )


#: Row label of each ``(topology transform, link model)`` cell.
_BURSTY_LABELS = {
    (None, "static"): "static trace (paper model)",
    (None, "gilbert_elliott"): "bursty (Gilbert-Elliott)",
    ("ge_mean_matched", "static"): "static, mean-matched",
    ("ge_mean_matched", "gilbert_elliott"): "bursty, mean-matched twin",
}


def run_bursty_links(
    scale: str = "full", seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Bursty (Gilbert-Elliott) links vs the paper's static-loss model.

    The series compares the trace under bursty links with its static
    ``ge_mean_matched`` twin: both see the *same long-run mean PRR*, so
    any delay gap is the effect of loss *correlation* — a bad period
    spanning a wake slot costs a whole duty-cycle period per retry,
    which independent draws amortize but bursts do not. Every cell
    shares its seed, so the comparison is paired; the other two cells
    of the 2x2 grid are reported in the metadata rows.
    """
    g = bursty_grid(scale, seed)
    rows = {
        _BURSTY_LABELS[(topo.transform, link)]: summary.mean_delay()
        for (topo, link), summary in zip(g.combos(), run_grid(g))
    }
    labels = ["static, mean-matched", "bursty (Gilbert-Elliott)"]
    return ExperimentResult(
        experiment_id="abl-bursty",
        title="Ablation: static mean-matched loss vs bursty links",
        series=[
            Series(label="avg delay", x=np.asarray([0, 1]),
                   y=np.asarray([rows[l] for l in labels])),
        ],
        metadata={
            "x_labels": labels,
            "long_run_prr_scale": round(GeParams().long_run_prr_scale(), 4),
            "rows": rows,
        },
    )


def opp_threshold_grid(
    scale: str = "full", seed: int = DEFAULT_SEED
) -> ScenarioGrid:
    ts = resolve_scale(scale)
    quantiles = (0.2, 0.5, 0.8, 0.95) if scale != "smoke" else (0.2, 0.8)
    return ScenarioGrid(
        base=Scenario(protocol="of", duty_ratio=DUTY_RATIO,
                      n_packets=ts.n_packets, seed=seed,
                      topology=trace_spec(scale, seed)),
        axes={"protocol_kwargs": tuple({"opp_quantile": q} for q in quantiles)},
        name="abl-opp-threshold",
    )


def run_opp_threshold(scale: str = "full", seed: int = DEFAULT_SEED) -> ExperimentResult:
    ts = resolve_scale(scale)
    g = opp_threshold_grid(scale, seed)
    summaries = run_grid(g)
    x = np.asarray([kw["opp_quantile"] for (kw,) in g.combos()])
    return ExperimentResult(
        experiment_id="abl-opp-threshold",
        title="Ablation: OF opportunistic-forwarding quantile",
        series=[
            Series(label="avg delay", x=x,
                   y=np.asarray([s.mean_delay() for s in summaries])),
            Series(label="tx attempts", x=x,
                   y=np.asarray([s.mean_tx_attempts() for s in summaries])),
        ],
        metadata={"duty_ratio": DUTY_RATIO, "n_packets": ts.n_packets},
    )
