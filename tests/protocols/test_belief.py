"""Tests for the neighbor-coverage belief store (RepNeighborBelief)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.generators import line_topology
from repro.protocols._belief import RepNeighborBelief


def _believes_has(belief, observer, receiver, packet, rep=0):
    needs = belief.needs_pairs(
        np.asarray([rep]), np.asarray([observer]), np.asarray([receiver]))
    return not bool(needs[0, packet])


@pytest.fixture
def belief(line5):
    return RepNeighborBelief(line5, n_packets=3, n_reps=2)


class TestNeighborBelief:
    def test_initially_believes_nothing(self, belief):
        needs = belief.needs_pairs(
            np.asarray([0, 1]), np.asarray([0, 2]), np.asarray([1, 3]))
        assert needs.all()
        assert not belief.rep_state(0).any()

    def test_confirm(self, belief):
        belief.sync_possession(0, 0, 1, [2])
        assert _believes_has(belief, 0, 1, 2)
        needs = belief.needs_pairs(
            np.asarray([0]), np.asarray([0]), np.asarray([1]))[0]
        assert needs.tolist() == [True, True, False]
        # Replications never share evidence.
        assert not _believes_has(belief, 0, 1, 2, rep=1)

    def test_non_neighbor_queries_rejected(self, belief):
        with pytest.raises(KeyError):
            belief.needs_pairs(
                np.asarray([0]), np.asarray([0]), np.asarray([3]))

    def test_confirm_about_non_neighbor_dropped(self, belief):
        belief.sync_possession(0, 0, 4, [0])  # silently useless
        counts = belief.coverage_counts(
            np.asarray([0]), np.asarray([0]), np.asarray([0]))
        assert counts.tolist() == [0]

    def test_confirm_for_witnesses(self, belief):
        belief.sync_for_witnesses(0, [0, 2], 1, [1])
        assert _believes_has(belief, 0, 1, 1)
        assert _believes_has(belief, 2, 1, 1)

    def test_coverage_count(self, belief):
        belief.sync_possession(0, 1, 0, [0])
        belief.sync_possession(0, 1, 2, [0])
        counts = belief.coverage_counts(
            np.asarray([0, 0, 1]), np.asarray([1, 1, 1]),
            np.asarray([0, 1, 0]))
        assert counts.tolist() == [2, 0, 0]

    def test_validation(self, line5):
        with pytest.raises(ValueError):
            RepNeighborBelief(line5, n_packets=0, n_reps=1)
        with pytest.raises(ValueError):
            RepNeighborBelief(line5, n_packets=3, n_reps=0)

    def test_sync_possession_absorbs_summary(self, belief):
        belief.sync_possession(0, 0, 1, [0, 2])
        assert _believes_has(belief, 0, 1, 0)
        assert not _believes_has(belief, 0, 1, 1)
        assert _believes_has(belief, 0, 1, 2)

    def test_sync_possession_non_neighbor_dropped(self, belief):
        belief.sync_possession(0, 0, 4, [0])  # not an out-neighbor: no-op
        assert not belief.rep_state(0).any()

    def test_sync_for_witnesses(self, belief):
        # The batched form agrees with per-witness syncs.
        belief.sync_pairs(
            np.asarray([1, 1]), np.asarray([0, 2]), np.asarray([1, 1]),
            np.tile([False, True, False], (2, 1)),
        )
        assert _believes_has(belief, 0, 1, 1, rep=1)
        assert _believes_has(belief, 2, 1, 1, rep=1)
        assert not _believes_has(belief, 0, 1, 0, rep=1)

    def test_sync_is_monotone(self, belief):
        # A later, shorter summary never revokes earlier knowledge (the
        # engine only ever grows possession, so summaries only grow too;
        # the store must not clear bits).
        belief.sync_possession(0, 0, 1, [0, 1])
        belief.sync_possession(0, 0, 1, [1])
        assert _believes_has(belief, 0, 1, 0)

    @given(st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=20))
    @settings(max_examples=30)
    def test_soundness_one_sided(self, updates):
        # Beliefs only move from "needs" to "has" — never backwards.
        belief = RepNeighborBelief(line_topology(4), n_packets=3, n_reps=1)
        confirmed = set()
        for pkt, _ in updates:
            belief.sync_possession(0, 1, 2, [pkt])
            confirmed.add(pkt)
            for p in range(3):
                assert _believes_has(belief, 1, 2, p) == (p in confirmed)
