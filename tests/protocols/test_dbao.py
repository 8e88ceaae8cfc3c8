"""Tests for DBAO (deterministic back-off + overhearing)."""

import numpy as np
import pytest

from repro.net.generators import line_topology, star_topology
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.protocols.dbao import Dbao, forwarder_clique
from repro.scenario import Scenario
from repro.sim.engine import SimConfig, run_flood
from repro.sim.runner import run_experiment


def flood(topo, n_packets=2, period=5, seed=0, **proto_kwargs):
    rng = np.random.default_rng(seed)
    schedules = ScheduleTable.random(topo.n_nodes, period, rng)
    return run_flood(
        topo, schedules, FloodWorkload(n_packets), Dbao(**proto_kwargs),
        np.random.default_rng(seed + 1), SimConfig(coverage_target=1.0),
    )


class TestForwarderClique:
    def test_clique_is_mutually_audible(self, small_rgg):
        for r in range(0, small_rgg.n_nodes, 7):
            clique = forwarder_clique(small_rgg, r)
            for i, a in enumerate(clique):
                for b in clique[i + 1:]:
                    assert small_rgg.has_link(a, b) or small_rgg.has_link(b, a)

    def test_clique_subset_of_in_neighbors(self, small_rgg):
        for r in range(small_rgg.n_nodes):
            clique = forwarder_clique(small_rgg, r)
            nbs = set(small_rgg.in_neighbors(r).tolist())
            assert set(clique) <= nbs

    def test_anchor_always_included(self, small_rgg):
        r = 5
        nbs = small_rgg.in_neighbors(r)
        if nbs.size:
            anchor = int(nbs[-1])
            clique = forwarder_clique(small_rgg, r, anchor=anchor)
            assert anchor in clique

    def test_anchor_must_be_neighbor(self, line5):
        with pytest.raises(ValueError):
            forwarder_clique(line5, 1, anchor=3)

    def test_negative_anchor_ignored(self, line5):
        # In-neighbors of node 1 are {0, 2}, but 0 and 2 cannot hear each
        # other on the chain — the greedy clique keeps only the best one.
        clique = forwarder_clique(line5, 1, anchor=-1)
        assert clique == [0]


class TestDbaoBehavior:
    def test_completes(self, line5):
        assert flood(line5).completed

    def test_completes_on_lossy_network(self, small_rgg):
        result = flood(small_rgg, seed=4)
        assert result.completed

    def test_deterministic_backoff_prevents_sibling_collisions(self, star8):
        # All contenders for the hub's sensors can hear each other through
        # the hub? No — star sensors are NOT mutually audible. But for a
        # single receiver the clique restriction keeps contention audible,
        # so collisions should be rare on the star.
        result = flood(star8, n_packets=3, seed=2)
        assert result.completed

    def test_belief_soundness_no_false_skip(self, small_rgg):
        # The final possession matrix must be complete for reachable
        # nodes: sound beliefs never let DBAO skip a needed packet
        # forever.
        result = flood(small_rgg, n_packets=3, seed=7)
        reach = small_rgg.reachable_from_source()
        assert result.has[:, reach].all()

    def test_overhearing_reduces_transmissions(self, small_rgg):
        spec_on = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=4,
                           seed=11)
        spec_off = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=4,
                            seed=11,
                            protocol_kwargs={"overhearing": False})
        on = run_experiment(small_rgg, spec_on)
        off = run_experiment(small_rgg, spec_off)
        assert on.mean_tx_attempts() < off.mean_tx_attempts()

    def test_never_transmits_to_source(self, line5):
        rng = np.random.default_rng(1)
        schedules = ScheduleTable.random(5, 4, rng)
        result = run_flood(
            line5, schedules, FloodWorkload(2), Dbao(),
            np.random.default_rng(2),
            SimConfig(coverage_target=1.0, track_events=True),
        )
        for e in result.events:
            if e.kind.value == "tx":
                assert e.receiver != 0

    def test_init_kwargs_recorded(self):
        assert Dbao(overhearing=False).init_kwargs == {"overhearing": False}
