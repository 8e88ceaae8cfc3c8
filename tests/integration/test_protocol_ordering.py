"""Integration: the paper's protocol dominance and Fig. 9-11 shapes."""

import numpy as np
import pytest

from repro.analysis.validate import dominance_holds, relative_spread
from repro.scenario import Scenario, ScenarioGrid
from repro.sim.runner import run_experiment, run_scenarios


@pytest.fixture(scope="module")
def trace():
    from repro.experiments._common import get_trace

    return get_trace("smoke")


@pytest.fixture(scope="module")
def duty_grid(trace):
    """``{protocol: {duty: summary}}`` over protocols x duty ratios."""
    grid = ScenarioGrid(
        Scenario(protocol="opt", duty_ratio=0.05, n_packets=4, seed=2011),
        axes={"protocol": ("opt", "dbao", "of"), "duty_ratio": (0.05, 0.2)},
    )
    out = {}
    for (proto, duty), summary in zip(
            grid.combos(), run_scenarios(grid.scenarios(), topo=trace)):
        out.setdefault(proto, {})[duty] = summary
    return out


class TestDominance:
    def test_opt_dbao_of_ordering(self, duty_grid):
        # Fig. 10's ordering at each duty ratio (generous slack: the smoke
        # network is small and noisy).
        for duty in (0.05, 0.2):
            delays = {
                proto: duty_grid[proto][duty].mean_delay()
                for proto in ("opt", "dbao", "of")
            }
            assert delays["opt"] <= delays["dbao"] * 1.3
            assert delays["opt"] <= delays["of"] * 1.3

    def test_opt_has_fewest_failures(self, duty_grid):
        for duty in (0.05, 0.2):
            fails = {
                proto: duty_grid[proto][duty].mean_failures()
                for proto in ("opt", "dbao", "of")
            }
            assert fails["opt"] <= fails["dbao"]

    def test_everyone_completes(self, duty_grid):
        for proto in duty_grid:
            for duty in duty_grid[proto]:
                assert duty_grid[proto][duty].completion_rate() == 1.0


class TestDutyCycleShape:
    def test_delay_explodes_at_low_duty(self, duty_grid):
        # Fig. 10: delay at 5% substantially above delay at 20%.
        for proto in ("opt", "dbao", "of"):
            low = duty_grid[proto][0.05].mean_delay()
            high = duty_grid[proto][0.2].mean_delay()
            assert low > high

    def test_failures_do_not_explode(self, duty_grid):
        # Fig. 11: failures stay within the same order of magnitude across
        # duty ratios (they are set by loss, not by sleeping).
        for proto in ("opt", "dbao", "of"):
            fails = [duty_grid[proto][d].mean_failures() for d in (0.05, 0.2)]
            assert max(fails) <= 6 * max(min(fails), 1)


class TestPairedDominance:
    def test_opt_dominates_of_with_statistical_significance(self, trace):
        # Replications share schedule/loss streams across protocols, so
        # the comparison is paired — the strongest statistical form of
        # the Fig. 10 ordering claim.
        from repro.analysis.stats import dominates_paired

        summaries = {}
        for proto in ("opt", "of"):
            summaries[proto] = run_experiment(trace, Scenario(
                protocol=proto, duty_ratio=0.1, n_packets=4, seed=17,
                n_replications=5,
            ))
        assert dominates_paired(
            summaries["opt"].per_replication_delays(),
            summaries["of"].per_replication_delays(),
        )


class TestBlockingEffect:
    def test_delay_grows_with_packet_index(self, trace):
        # DBAO: injection outpaces the contended drain, so later packets
        # visibly queue behind earlier ones (the Fig. 9 ramp). OPT's
        # designated pipeline injects at its own drain rate and shows a
        # flat curve instead — "fully pipelined", also consistent with
        # the theory.
        summary = run_experiment(trace, Scenario(
            protocol="dbao", duty_ratio=0.1, n_packets=8, seed=4,
        ))
        curve = summary.per_packet_delay()
        third = len(curve) // 3
        assert np.nanmean(curve[-third:]) > np.nanmean(curve[:third])
