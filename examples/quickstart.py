#!/usr/bin/env python
"""Quickstart: flood packets through a small low-duty-cycle WSN.

Builds a 120-sensor random deployment, floods 5 packets at a 5% duty
cycle with the paper's three protocols (OPT oracle, DBAO, OF), and
compares the measured delays with the paper's analytic machinery:

* the reliable-link FWL/FDL limits (Lemma 2 / Theorem 1),
* the lossy-link delay prediction (Sec. IV-B recurrence).

Run: ``python examples/quickstart.py``
"""

import numpy as np

from repro import (
    Scenario,
    fdl_theorem1,
    fwl_reliable,
    run_experiment,
)
from repro.analysis import analytic_lower_bound
from repro.net import random_geometric_topology

SEED = 7
DUTY_RATIO = 0.05
N_PACKETS = 5


def main() -> None:
    rng = np.random.default_rng(SEED)
    topo = random_geometric_topology(n_nodes=121, area_m=420.0, rng=rng)
    mean_deg, _, _ = topo.degree_stats()
    print(f"network: {topo.n_sensors} sensors, mean degree {mean_deg:.1f}, "
          f"mean PRR {topo.mean_prr():.2f}")

    # --- Theory -------------------------------------------------------
    m = fwl_reliable(topo.n_sensors)
    period = round(1 / DUTY_RATIO)
    print(f"\ntheory: single-packet FWL m = {m} compact slots")
    print(f"theory: Theorem 1 E[FDL] for M={N_PACKETS}, T={period}: "
          f"{fdl_theorem1(topo.n_sensors, N_PACKETS, period):.0f} slots "
          f"(ideal links)")
    bound = analytic_lower_bound(topo, DUTY_RATIO)
    print(f"theory: lossy-link per-packet lower bound: {bound:.0f} slots")

    # --- Simulation ---------------------------------------------------
    print(f"\nflooding M={N_PACKETS} packets at {DUTY_RATIO:.0%} duty cycle:")
    header = f"{'protocol':<12}{'avg delay':>10}{'failures':>10}{'collisions':>12}"
    print(header)
    print("-" * len(header))
    for proto in ("opt", "dbao", "of"):
        summary = run_experiment(
            topo,
            Scenario(
                protocol=proto,
                duty_ratio=DUTY_RATIO,
                n_packets=N_PACKETS,
                seed=SEED,
            ),
        )
        print(
            f"{proto:<12}{summary.mean_delay():>10.1f}"
            f"{summary.mean_failures():>10.0f}{summary.mean_collisions():>12.0f}"
        )
    print("\nexpected ordering: opt <= dbao <= of, all above the lower bound.")


if __name__ == "__main__":
    main()
