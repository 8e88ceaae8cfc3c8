"""Tests for the replication-batched Gilbert-Elliott layer.

The batched engine stacks R per-replication :class:`GilbertElliott`
instances into one :class:`BatchGilbertElliott` whose rows must evolve
**bit-identically** to the standalone instances — same BAD flags, same
generator positions — under any interleaving of per-replication steps
and block advances, including the chunked closed-form advance path.
"""

import numpy as np
import pytest

from repro.net.dynamics import BatchGilbertElliott, GilbertElliott


def _make(topo, seed, p_gb=0.05, p_bg=0.2):
    return GilbertElliott(
        topo, p_good_to_bad=p_gb, p_bad_to_good=p_bg, bad_factor=0.2,
        rng=np.random.default_rng(seed), start_stationary=True,
    )


def _twin_sets(topo, n_reps, **kw):
    """(batched, serial) instance sets built from identical streams."""
    batched_src = [_make(topo, 100 + rep, **kw) for rep in range(n_reps)]
    serial = [_make(topo, 100 + rep, **kw) for rep in range(n_reps)]
    return BatchGilbertElliott.from_instances(batched_src), serial


class TestConstruction:
    def test_from_instances_shape(self, small_rgg):
        batch, serial = _twin_sets(small_rgg, 3)
        assert batch.n_reps == 3
        assert batch.n_links == serial[0].n_links
        for rep, inst in enumerate(serial):
            np.testing.assert_array_equal(batch.rep_state(rep), inst._bad)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BatchGilbertElliott.from_instances([])

    def test_mismatched_params_rejected(self, small_rgg):
        a = _make(small_rgg, 1, p_gb=0.05)
        b = _make(small_rgg, 2, p_gb=0.07)
        with pytest.raises(ValueError):
            BatchGilbertElliott.from_instances([a, b])

    def test_mismatched_topology_rejected(self, small_rgg, line5):
        a = _make(small_rgg, 1)
        b = _make(line5, 2)
        with pytest.raises(ValueError):
            BatchGilbertElliott.from_instances([a, b])


class TestStepReps:
    """step_reps(rep_ids) == each listed serial instance stepping once."""

    def test_all_reps_step(self, small_rgg):
        batch, serial = _twin_sets(small_rgg, 4)
        for _ in range(50):
            batch.step_reps(np.arange(4))
            for inst in serial:
                inst.step()
        for rep, inst in enumerate(serial):
            np.testing.assert_array_equal(batch.rep_state(rep), inst._bad)

    def test_subset_steps_leave_others_untouched(self, small_rgg):
        batch, serial = _twin_sets(small_rgg, 4)
        # Reps advance on their own clocks: 0 and 2 run, 1 and 3 idle.
        for _ in range(20):
            batch.step_reps(np.array([0, 2]))
            serial[0].step()
            serial[2].step()
        for rep, inst in enumerate(serial):
            np.testing.assert_array_equal(batch.rep_state(rep), inst._bad)
        # Stream positions stayed per-replication too.
        for rep, inst in enumerate(serial):
            np.testing.assert_array_equal(
                batch._rngs[rep].random(8), inst._rng.random(8)
            )


class TestAdvanceRep:
    """advance_rep(k, n) == the serial instance's advance(n) == n steps."""

    @pytest.mark.parametrize("k", [1, 3, 7, 64, 1001])
    def test_matches_serial_advance(self, small_rgg, k):
        batch, serial = _twin_sets(small_rgg, 3)
        batch.advance_rep(1, k)
        serial[1].advance(k)
        for rep, inst in enumerate(serial):
            np.testing.assert_array_equal(batch.rep_state(rep), inst._bad)
            np.testing.assert_array_equal(
                batch._rngs[rep].random(8), inst._rng.random(8)
            )

    @pytest.mark.parametrize("k", [2, 13, 200])
    def test_matches_sequential_steps(self, small_rgg, k):
        batch, serial = _twin_sets(small_rgg, 2)
        batch.advance_rep(0, k)
        for _ in range(k):
            serial[0].step()
        np.testing.assert_array_equal(batch.rep_state(0), serial[0]._bad)
        np.testing.assert_array_equal(
            batch._rngs[0].random(8), serial[0]._rng.random(8)
        )

    def test_interleaved_step_advance_lazy_catchup(self, small_rgg):
        # The batched engine's actual pattern: reps at different clocks,
        # each catching up with advance_rep then stepping.
        batch, serial = _twin_sets(small_rgg, 3)
        script = [(0, 4), (1, 0), (2, 17), (0, 1), (2, 2), (1, 30)]
        for rep, gap in script:
            if gap:
                batch.advance_rep(rep, gap)
                serial[rep].advance(gap)
            batch.step_reps(np.array([rep]))
            serial[rep].step()
        for rep, inst in enumerate(serial):
            np.testing.assert_array_equal(batch.rep_state(rep), inst._bad)
            np.testing.assert_array_equal(
                batch._rngs[rep].random(8), inst._rng.random(8)
            )

    def test_chunk_boundary(self, small_rgg, monkeypatch):
        # Force the closed-form advance to split into multiple chunks
        # (normally only hit on very long gaps): per-chunk block draws
        # must consume each replication's stream identically to the
        # step-by-step evolution.
        from repro.net import dynamics as dyn_mod

        batch, serial = _twin_sets(small_rgg, 2, p_gb=0.04, p_bg=0.12)
        n_links = batch.n_links
        monkeypatch.setattr(dyn_mod, "_ADVANCE_BLOCK_DRAWS", 7 * n_links)
        k = 5000
        batch.advance_rep(0, k)
        batch.advance_rep(1, k)
        for inst in serial:
            for _ in range(k):
                inst.step()
        for rep, inst in enumerate(serial):
            np.testing.assert_array_equal(batch.rep_state(rep), inst._bad)
            np.testing.assert_array_equal(
                batch._rngs[rep].random(8), inst._rng.random(8)
            )

    def test_negative_rejected(self, small_rgg):
        batch, _ = _twin_sets(small_rgg, 2)
        with pytest.raises(ValueError):
            batch.advance_rep(0, -1)

    def test_zero_is_noop(self, small_rgg):
        batch, serial = _twin_sets(small_rgg, 2)
        before = batch.rep_state(1)
        batch.advance_rep(1, 0)
        np.testing.assert_array_equal(batch.rep_state(1), before)
        np.testing.assert_array_equal(
            batch._rngs[1].random(4), serial[1]._rng.random(4)
        )


class TestGains:
    def test_scalar_gain_matches_serial(self, small_rgg):
        batch, serial = _twin_sets(small_rgg, 3)
        batch.step_reps(np.arange(3))
        for inst in serial:
            inst.step()
        n = small_rgg.n_nodes
        for rep, inst in enumerate(serial):
            for s in range(n):
                for r in range(n):
                    assert batch.gain(rep, s, r) == inst.gain(s, r)

    def test_vectorized_gains_match_scalar(self, small_rgg):
        batch, _ = _twin_sets(small_rgg, 3)
        batch.step_reps(np.arange(3))
        rng = np.random.default_rng(0)
        n = small_rgg.n_nodes
        kk = rng.integers(0, 3, size=64)
        ss = rng.integers(0, n, size=64)
        rr = rng.integers(0, n, size=64)
        out = batch.gains(kk, ss, rr)
        expect = [batch.gain(int(k), int(s), int(r))
                  for k, s, r in zip(kk, ss, rr)]
        np.testing.assert_array_equal(out, np.asarray(expect))
