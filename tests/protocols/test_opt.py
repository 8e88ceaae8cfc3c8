"""Tests for the OPT oracle protocol."""

import numpy as np
import pytest

from repro.net.generators import line_topology, star_topology
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.net.topology import Topology
from repro.protocols.opt import OptOracle, opt_radio_model
from repro.sim.engine import SimConfig, run_flood


def flood(topo, n_packets=1, period=5, seed=0, lossless=True):
    rng = np.random.default_rng(seed)
    schedules = ScheduleTable.random(topo.n_nodes, period, rng)
    config = SimConfig(
        coverage_target=1.0, radio=opt_radio_model(lossless=lossless)
    )
    return run_flood(
        topo, schedules, FloodWorkload(n_packets), OptOracle(),
        np.random.default_rng(seed + 1), config,
    )


class TestOptRadioModel:
    def test_collision_free(self):
        model = opt_radio_model()
        assert not model.collisions
        assert not model.overhearing

    def test_lossless_flag(self):
        assert opt_radio_model(lossless=True).lossless


class TestDesignatedServers:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            OptOracle(server_policy="best")

    def test_designated_server_is_strict_upstream(self, small_rgg):
        from repro.net.packet import FloodWorkload
        from repro.net.schedule import ScheduleTable
        from repro.protocols.tree import build_etx_tree

        proto = OptOracle()
        rng = np.random.default_rng(0)
        schedules = ScheduleTable.random(small_rgg.n_nodes, 10, rng)
        proto.prepare_reps(small_rgg, [schedules], FloodWorkload(1), [rng])
        tree = build_etx_tree(small_rgg, 10)
        designated = proto._designated
        for r in range(1, small_rgg.n_nodes):
            s = int(designated[r])
            if s < 0:
                assert not np.isfinite(tree.etx_cost[r])
                continue
            # Strictly closer to the source: the server graph is acyclic.
            assert tree.etx_cost[s] < tree.etx_cost[r]
            # Best PRR among strict-upstream in-neighbors.
            upstream = [
                u for u in small_rgg.in_neighbors(r).tolist()
                if tree.etx_cost[u] < tree.etx_cost[r]
            ]
            best = max(upstream, key=lambda u: small_rgg.link_prr(u, r))
            assert small_rgg.link_prr(s, r) == pytest.approx(
                small_rgg.link_prr(best, r)
            )

    def test_designated_completes(self, small_rgg):
        rng = np.random.default_rng(2)
        schedules = ScheduleTable.random(small_rgg.n_nodes, 10, rng)
        result = run_flood(
            small_rgg, schedules, FloodWorkload(3), OptOracle(), rng,
            SimConfig(radio=opt_radio_model()),
        )
        assert result.completed

    def test_any_policy_completes(self, small_rgg):
        rng = np.random.default_rng(2)
        schedules = ScheduleTable.random(small_rgg.n_nodes, 10, rng)
        result = run_flood(
            small_rgg, schedules, FloodWorkload(3),
            OptOracle(server_policy="any"), rng,
            SimConfig(radio=opt_radio_model()),
        )
        assert result.completed

    def test_init_kwargs_recorded(self):
        assert OptOracle().init_kwargs == {"server_policy": "designated"}
        assert OptOracle(server_policy="any").init_kwargs == {
            "server_policy": "any"
        }


class TestOptBehavior:
    def test_completes_chain(self, line5):
        result = flood(line5)
        assert result.completed

    def test_no_collisions_ever(self, small_rgg):
        rng = np.random.default_rng(2)
        schedules = ScheduleTable.random(small_rgg.n_nodes, 10, rng)
        result = run_flood(
            small_rgg, schedules, FloodWorkload(3), OptOracle(), rng,
            SimConfig(radio=opt_radio_model()),
        )
        assert result.metrics.collisions == 0
        assert result.completed

    def test_radio_overhearing_configurable(self):
        assert not opt_radio_model().overhearing  # unicast by default
        assert opt_radio_model(overhearing=True).overhearing

    def test_picks_best_link(self):
        # Receiver 3 reachable from 1 (PRR 0.9) and 2 (PRR 0.4): the
        # oracle must always deliver via node 1 when both hold the packet.
        mat = np.zeros((4, 4))
        mat[0, 1] = mat[0, 2] = 1.0
        mat[1, 3] = 0.9
        mat[2, 3] = 0.4
        mat[1, 0] = mat[2, 0] = 1.0
        mat[3, 1] = 0.9
        mat[3, 2] = 0.4
        topo = Topology(mat)
        rng = np.random.default_rng(0)
        schedules = ScheduleTable(period=4, offsets=[0, 1, 2, 3])
        result = run_flood(
            topo, schedules, FloodWorkload(1), OptOracle(), rng,
            SimConfig(coverage_target=1.0,
                      radio=opt_radio_model(lossless=True, overhearing=False),
                      track_events=True),
        )
        deliveries = [e for e in result.events
                      if e.kind.value == "deliver" and e.receiver == 3]
        assert len(deliveries) == 1
        assert deliveries[0].sender == 1

    def test_one_tx_per_sender_per_slot(self, star8):
        # The hub serves one waking sensor per slot even if several wake.
        rng = np.random.default_rng(3)
        schedules = ScheduleTable(period=2, offsets=[1] + [0] * 8)
        result = run_flood(
            star8, schedules, FloodWorkload(1), OptOracle(), rng,
            SimConfig(coverage_target=1.0,
                      radio=opt_radio_model(lossless=True, overhearing=False),
                      track_events=True),
        )
        from collections import Counter

        per_slot = Counter(
            e.t for e in result.events if e.kind.value == "tx" and e.sender == 0
        )
        assert max(per_slot.values()) == 1
        # Star with simultaneous wake-ups: 8 sensors need 8 separate slots.
        assert result.metrics.delays.makespan() >= 8

    def test_delay_optimal_on_chain(self, line5):
        # Lossless chain: the oracle achieves per-hop sleep latency only.
        result = flood(line5, period=5, seed=1)
        # Makespan bounded by hops * period (each hop waits < one period).
        assert result.metrics.delays.makespan() <= 4 * 5

    def test_multi_packet_fcfs(self, line5):
        result = flood(line5, n_packets=4)
        assert result.completed
        # Packets complete in order on a chain under FCFS.
        completed = result.metrics.delays.completed
        assert np.all(np.diff(completed) >= 0)
