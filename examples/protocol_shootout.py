#!/usr/bin/env python
"""Protocol shoot-out: every flooding scheme on one substrate.

Runs all seven registered protocols — the paper's three evaluation
schemes (OPT, DBAO, OF), the two baselines (naive, DCA), and the two
related-work/extension designs (Flash, cross-layer) — on the same
deployment with paired random streams, and prints a league table of
delay, transmission cost, failures, and collisions.

Run: ``python examples/protocol_shootout.py [--duty 0.05] [--packets 8]``
"""

import argparse

import numpy as np

from repro import Scenario, run_experiment
from repro.analysis import analytic_lower_bound
from repro.net import synthesize_greenorbs
from repro.net.trace import GreenOrbsConfig
from repro.protocols import available_protocols

SEED = 2011


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duty", type=float, default=0.05)
    parser.add_argument("--packets", type=int, default=8)
    parser.add_argument("--sensors", type=int, default=150,
                        help="smaller default than the 298-node trace so "
                             "the shoot-out finishes in about a minute")
    args = parser.parse_args()

    config = GreenOrbsConfig(
        n_sensors=args.sensors,
        area_m=700.0 * (args.sensors / 298.0) ** 0.5,
        n_clusters=max(3, round(10 * args.sensors / 298)),
    )
    topo = synthesize_greenorbs(seed=SEED, config=config)
    bound = analytic_lower_bound(topo, args.duty)
    print(f"substrate: {topo.n_sensors} sensors, duty {args.duty:.0%}, "
          f"M = {args.packets}")
    print(f"analytic per-packet lower bound: {bound:.0f} slots\n")

    header = (f"{'protocol':<12}{'avg delay':>10}{'done':>6}"
              f"{'tx':>9}{'fail':>8}{'coll':>8}")
    print(header)
    print("-" * len(header))
    rows = []
    for proto in available_protocols():
        summary = run_experiment(topo, Scenario(
            protocol=proto,
            duty_ratio=args.duty,
            n_packets=args.packets,
            seed=SEED,
        ))
        rows.append((
            summary.mean_delay(), proto, summary.completion_rate(),
            summary.mean_tx_attempts(), summary.mean_failures(),
            summary.mean_collisions(),
        ))
    for delay, proto, done, tx, fail, coll in sorted(
        rows, key=lambda r: (np.isnan(r[0]), r[0])
    ):
        print(f"{proto:<12}{delay:>10.0f}{done:>6.0%}"
              f"{tx:>9.0f}{fail:>8.0f}{coll:>8.0f}")

    print("\nreading guide: opt is the oracle floor; dbao/of are the "
          "paper's practical\nschemes; crosslayer exploits data "
          "overhearing (future work); flash rides the\ncapture effect; "
          "dca assumes reliable links; naive is the strawman.")


if __name__ == "__main__":
    main()
