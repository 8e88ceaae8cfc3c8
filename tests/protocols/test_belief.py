"""Tests for the neighbor-coverage belief store (RepNeighborBelief)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.generators import line_topology
from repro.protocols._belief import RepNeighborBelief


def _believed(belief, observer, receiver, rep=0):
    """(M,) packets ``observer`` believes its out-neighbor ``receiver``
    holds, read off :meth:`RepNeighborBelief.rep_state`. On a line the
    out-neighbors of ``v`` are ``v - 1`` and ``v + 1`` in that order, so
    the source's only neighbor is its column 0."""
    col = int(receiver > observer > 0)
    return belief.rep_state(rep)[observer, :, col]


def _believes_has(belief, observer, receiver, packet, rep=0):
    return bool(_believed(belief, observer, receiver, rep)[packet])


def _sync(belief, rep, observers, receiver, held, n_packets=3, n_nodes=5):
    """``observers`` absorb ``receiver``'s summary: it holds ``held``."""
    has = np.zeros((belief.n_reps, n_packets, n_nodes), dtype=bool)
    has[rep, list(held), receiver] = True
    obs = np.atleast_1d(np.asarray(observers, dtype=np.int64))
    belief.sync(np.full(obs.size, rep), obs, np.full(obs.size, receiver),
                belief.packet_words.pack(has, axis=1))


@pytest.fixture
def belief(line5):
    return RepNeighborBelief(line5, n_packets=3, n_reps=2)


class TestNeighborBelief:
    def test_initially_believes_nothing(self, belief):
        assert not _believed(belief, 0, 1).any()
        assert not _believed(belief, 2, 3, rep=1).any()
        assert not belief.rep_state(0).any()

    def test_confirm(self, belief):
        _sync(belief, 0, 0, 1, [2])
        assert _believes_has(belief, 0, 1, 2)
        assert _believed(belief, 0, 1).tolist() == [False, False, True]
        # Replications never share evidence.
        assert not _believes_has(belief, 0, 1, 2, rep=1)

    def test_non_neighbor_queries_rejected(self, belief):
        holds = np.zeros((2, 5, 1), dtype=np.uint64)
        with pytest.raises(KeyError):
            belief.offer_words(
                np.asarray([0]), np.asarray([0]), np.asarray([3]), holds)

    def test_confirm_about_non_neighbor_dropped(self, belief):
        _sync(belief, 0, 0, 4, [0])  # silently useless
        counts = belief.coverage_counts(
            np.asarray([0]), np.asarray([0]), np.asarray([0]))
        assert counts.tolist() == [0]

    def test_confirm_for_witnesses(self, belief):
        _sync(belief, 0, [0, 2], 1, [1])
        assert _believes_has(belief, 0, 1, 1)
        assert _believes_has(belief, 2, 1, 1)

    def test_coverage_count(self, belief):
        _sync(belief, 0, 1, 0, [0])
        _sync(belief, 0, 1, 2, [0])
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
        _sync(belief, 0, 0, 1, [0, 2])
        assert _believes_has(belief, 0, 1, 0)
        assert not _believes_has(belief, 0, 1, 1)
        assert _believes_has(belief, 0, 1, 2)

    def test_sync_possession_non_neighbor_dropped(self, belief):
        _sync(belief, 0, 0, 4, [0])  # not an out-neighbor: no-op
        assert not belief.rep_state(0).any()

    def test_sync_for_witnesses(self, belief):
        # One batch mixing two witnesses of node 1's summary with a
        # non-neighbor tuple: the witnesses learn, the stray is dropped.
        has = np.zeros((2, 3, 5), dtype=bool)
        has[1, 1, 1] = True
        belief.sync(np.asarray([1, 1, 1]), np.asarray([0, 2, 0]),
                    np.asarray([1, 1, 4]),
                    belief.packet_words.pack(has, axis=1))
        assert _believes_has(belief, 0, 1, 1, rep=1)
        assert _believes_has(belief, 2, 1, 1, rep=1)
        assert not _believes_has(belief, 0, 1, 0, rep=1)
        assert not belief.rep_state(0).any()

    @pytest.mark.parametrize("n_packets", [3, 70],
                             ids=["one-word", "two-words"])
    def test_sync_reads_every_word(self, line5, n_packets):
        # Three packets fit one 64-bit word and seventy need two: the
        # engine's possession words must teach every packet of the
        # summary, in either word.
        rng = np.random.default_rng(5)
        has = rng.random((2, n_packets, 5)) < 0.5
        kk = np.asarray([0, 1, 1])
        obs = np.asarray([0, 2, 3])
        recv = np.asarray([1, 1, 2])
        belief = RepNeighborBelief(line5, n_packets=n_packets, n_reps=2)
        assert belief.packet_words.n_words == (1 if n_packets == 3 else 2)
        belief.sync(kk, obs, recv, belief.packet_words.pack(has, axis=1))
        expected = np.zeros((2, 5, n_packets, 2), dtype=bool)
        for k, o, r in zip(kk, obs, recv):
            col = int(np.flatnonzero(line5.out_neighbors(o) == r)[0])
            expected[k, o, :, col] = has[k, :, r]
        for k in range(2):
            np.testing.assert_array_equal(belief.rep_state(k), expected[k])

    def test_sync_is_monotone(self, belief):
        # A later, shorter summary never revokes earlier knowledge (the
        # engine only ever grows possession, so summaries only grow too;
        # the store must not clear bits).
        _sync(belief, 0, 0, 1, [0, 1])
        _sync(belief, 0, 0, 1, [1])
        assert _believes_has(belief, 0, 1, 0)

    @given(st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=20))
    @settings(max_examples=30)
    def test_soundness_one_sided(self, updates):
        # Beliefs only move from "needs" to "has" — never backwards.
        belief = RepNeighborBelief(line_topology(4), n_packets=3, n_reps=1)
        confirmed = set()
        for pkt, _ in updates:
            _sync(belief, 0, 1, 2, [pkt])
            confirmed.add(pkt)
            for p in range(3):
                assert _believes_has(belief, 1, 2, p) == (p in confirmed)
