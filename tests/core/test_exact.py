"""Tests for the exact tree-delay computation."""

import numpy as np
import pytest

from repro.core.exact import DelayPmf, ExactTreeDelay
from repro.net.generators import line_topology
from repro.net.schedule import ScheduleTable


def chain_setup(n_sensors=3, prr=1.0, period=5, offsets=None):
    topo = line_topology(n_sensors, prr=prr)
    if offsets is None:
        offsets = list(range(topo.n_nodes))
        offsets = [o % period for o in offsets]
    schedules = ScheduleTable(period=period, offsets=offsets)
    parent = np.arange(-1, topo.n_nodes - 1)
    return topo, schedules, parent


class TestDelayPmf:
    def test_validation(self):
        with pytest.raises(ValueError):
            DelayPmf(pmf=np.asarray([[0.5]]), tail=0.0)
        with pytest.raises(ValueError):
            DelayPmf(pmf=np.asarray([0.9]), tail=0.5)  # mass > 1
        with pytest.raises(ValueError):
            DelayPmf(pmf=np.asarray([-0.1, 0.5]), tail=0.0)

    def test_mean_and_quantile(self):
        pmf = DelayPmf(pmf=np.asarray([0.0, 0.5, 0.0, 0.5]), tail=0.0)
        assert pmf.mean() == pytest.approx(2.0)
        assert pmf.quantile(0.4) == 1
        assert pmf.quantile(0.9) == 3

    def test_quantile_beyond_horizon(self):
        pmf = DelayPmf(pmf=np.asarray([0.1]), tail=0.9)
        with pytest.raises(ValueError):
            pmf.quantile(0.5)


class TestPerfectChain:
    def test_deterministic_arrivals(self):
        # Perfect links, staggered offsets 0,1,2,3: hop i delivered at
        # slot i (parent forwardable at i, child wakes at i).
        topo, schedules, parent = chain_setup(n_sensors=3, prr=1.0, period=5)
        exact = ExactTreeDelay(topo, schedules, parent, horizon=64)
        pmfs = exact.compute(source_slot=0)
        for v in (1, 2, 3):
            pmf = pmfs[v]
            assert pmf.tail == pytest.approx(0.0, abs=1e-12)
            # All mass on a single slot.
            assert np.isclose(pmf.pmf.max(), 1.0)
            arrival = int(pmf.pmf.argmax())
            assert schedules.is_active(v, arrival)
            assert exact.expected_arrival(v) == pytest.approx(arrival)

    def test_arrivals_monotone_down_the_chain(self):
        topo, schedules, parent = chain_setup(n_sensors=4, prr=1.0, period=7,
                                              offsets=[0, 3, 1, 5, 2])
        exact = ExactTreeDelay(topo, schedules, parent, horizon=128)
        exact.compute()
        arrivals = [exact.expected_arrival(v) for v in range(1, 5)]
        assert all(a < b for a, b in zip(arrivals, arrivals[1:]))


class TestLossyChain:
    def test_single_hop_geometric(self):
        # One hop, PRR q, child wakes at offset 1, period 5, source at 0:
        # arrival at 1 + 5j with prob q (1-q)^j.
        topo, schedules, parent = chain_setup(n_sensors=1, prr=0.6, period=5,
                                              offsets=[0, 1])
        exact = ExactTreeDelay(topo, schedules, parent, horizon=200)
        pmf = exact.compute()[1]
        q = 0.6
        for j in range(5):
            assert pmf.pmf[1 + 5 * j] == pytest.approx(q * (1 - q) ** j)
        # Mean: 1 + 5 * E[failures] = 1 + 5 * (1-q)/q (within-horizon).
        assert pmf.mean() == pytest.approx(1 + 5 * (1 - q) / q, rel=1e-3)

    def test_tail_mass_shrinks_with_horizon(self):
        topo, schedules, parent = chain_setup(n_sensors=2, prr=0.3, period=10)
        short = ExactTreeDelay(topo, schedules, parent, horizon=64)
        long = ExactTreeDelay(topo, schedules, parent, horizon=512)
        t_short = short.compute()[2].tail
        t_long = long.compute()[2].tail
        assert t_long < t_short

    def test_lossier_links_later_arrivals(self):
        base = None
        for prr in (0.9, 0.5):
            topo, schedules, parent = chain_setup(n_sensors=3, prr=prr,
                                                  period=6)
            exact = ExactTreeDelay(topo, schedules, parent, horizon=800)
            exact.compute()
            mean = exact.expected_arrival(3)
            if base is None:
                base = mean
            else:
                assert mean > base


class TestAgainstSimulation:
    def test_chain_monte_carlo_matches_exact(self):
        """The strongest oracle check: engine vs closed-form, no slack knobs."""
        from repro.net.packet import FloodWorkload
        from repro.protocols.dca import DutyCycleAwareFlooding
        from repro.sim.engine import SimConfig, run_flood

        prr, period = 0.7, 5
        topo, schedules, parent = chain_setup(n_sensors=3, prr=prr,
                                              period=period,
                                              offsets=[0, 2, 4, 1])
        exact = ExactTreeDelay(topo, schedules, parent, horizon=512)
        exact.compute()
        expected = exact.expected_arrival(3)

        arrivals = []
        for seed in range(400):
            result = run_flood(
                topo, schedules, FloodWorkload(1), DutyCycleAwareFlooding(),
                np.random.default_rng(seed),
                SimConfig(coverage_target=1.0, max_slots=4000),
            )
            arrivals.append(int(result.arrival[0, 3]))
        measured = float(np.mean(arrivals))
        # 400 samples: standard error ~ sigma/20; allow 3 sigma-ish.
        assert measured == pytest.approx(expected, rel=0.1)

    def test_of_normal_approximation_is_conservative(self):
        # OF's hop model (T/q per hop) is offset-agnostic: it budgets a
        # full-period wait per attempt, so its quantiles sit *above* the
        # exact ones whenever the actual offsets are favorable — the safe
        # direction for OF's suppression decision (it under-suppresses,
        # never starves a receiver). Verify conservatism and that the
        # overestimate stays within the structural factor ~T/E[gap].
        from repro.protocols.tree import build_etx_tree

        topo, schedules, parent = chain_setup(n_sensors=4, prr=0.7, period=10)
        exact = ExactTreeDelay(topo, schedules, parent, horizon=2000)
        exact.compute()
        tree = build_etx_tree(topo, schedules.period)
        for v in (2, 4):
            exact_q = exact.node_pmf(v).quantile(0.8)
            approx_q = tree.delay_quantile(v, 0.8)
            assert approx_q >= exact_q
            assert approx_q <= 4 * exact_q


class TestValidation:
    def test_parent_shape(self):
        topo, schedules, _ = chain_setup()
        with pytest.raises(ValueError):
            ExactTreeDelay(topo, schedules, np.asarray([-1, 0]), horizon=64)

    def test_horizon_too_small(self):
        topo, schedules, parent = chain_setup(period=10)
        with pytest.raises(ValueError):
            ExactTreeDelay(topo, schedules, parent, horizon=5)

    def test_multi_slot_schedules_rejected(self):
        # The hop kernel steps one period per retry, which skips every
        # other active slot of a multi-slot table.
        topo, _, parent = chain_setup()
        two_slots = ScheduleTable(5, [[0, 2], [1, 3], [2, 4], [3, 0]])
        with pytest.raises(ValueError, match="one active slot"):
            ExactTreeDelay(topo, two_slots, parent, horizon=64)

    def test_unreachable_node(self):
        topo, schedules, parent = chain_setup()
        parent = parent.copy()
        parent[2] = -1  # cut node 2 (and transitively 3)
        exact = ExactTreeDelay(topo, schedules, parent, horizon=64)
        exact.compute()
        with pytest.raises(ValueError):
            exact.node_pmf(2)

    def test_makespan_requires_valid_coverage(self):
        topo, schedules, parent = chain_setup()
        exact = ExactTreeDelay(topo, schedules, parent, horizon=64)
        with pytest.raises(ValueError):
            exact.expected_flood_makespan(coverage=0.0)

    def test_makespan_at_least_deepest_mean(self):
        topo, schedules, parent = chain_setup(n_sensors=3, prr=0.8, period=5)
        exact = ExactTreeDelay(topo, schedules, parent, horizon=512)
        exact.compute()
        makespan = exact.expected_flood_makespan(1.0)
        assert makespan >= exact.expected_arrival(3) * 0.9
