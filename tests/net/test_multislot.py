"""Tests for schedule tables with several active slots per node (duty a/T)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.generators import line_topology
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.protocols.base import RepSimView


def _next_wakes(table, t, nodes=None):
    """Each node's first wake strictly after ``t`` through the engine's
    frontier query, :meth:`RepSimView.next_wakes`, on a one-table stack."""
    n = len(table)
    nodes = np.arange(n) if nodes is None else np.asarray(nodes)
    has = np.zeros((1, 1, n), dtype=bool)
    view = RepSimView(line_topology(n - 1), [table], FloodWorkload(1), has,
                      np.full(has.shape, -1, dtype=np.int64))
    return view.next_wakes(t, np.zeros(1, dtype=np.int64), nodes).min(axis=2)[0]

_OFFSETS = st.integers(1, 30).flatmap(
    lambda period: st.tuples(
        st.just(period),
        st.lists(st.integers(0, period - 1), min_size=1, max_size=12),
    )
)


@pytest.fixture
def table(rng):
    return ScheduleTable.random(8, 20, rng, 3)


class TestConstruction:
    def test_random_shape_and_duty(self, table):
        assert len(table) == 8
        assert table.slots_per_period == 3
        assert table.offsets_matrix.shape == (8, 3)
        assert table.duty_ratio == pytest.approx(0.15)

    def test_duplicate_slots_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScheduleTable(10, np.asarray([[1, 1]]))
        with pytest.raises(ValueError, match="node 2 has duplicate"):
            ScheduleTable(10, np.asarray([[0, 1], [2, 3], [4, 4]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ScheduleTable(10, np.asarray([[0, 10]]))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ScheduleTable.random(0, 10, rng, 2)
        with pytest.raises(ValueError):
            ScheduleTable.random(5, 10, rng, 11)
        with pytest.raises(ValueError):
            ScheduleTable(0, np.asarray([[0]]))

    @given(_OFFSETS)
    @settings(max_examples=60)
    def test_from_single_roundtrip(self, case):
        # Flat (n,) offsets and their (n, 1) column build the same
        # one-slot table: every query agrees.
        period, offsets = case
        flat = ScheduleTable(period, np.asarray(offsets))
        column = ScheduleTable(period, np.asarray(offsets)[:, None])
        assert np.array_equal(flat.offsets_matrix, column.offsets_matrix)
        assert np.array_equal(flat.offsets, column.offsets)
        assert flat.duty_ratio == column.duty_ratio == 1 / period
        assert len(flat) == len(column) == len(offsets)
        for t in range(2 * period + 1):
            assert np.array_equal(flat.awake_at(t), column.awake_at(t))
            for v in range(len(offsets)):
                assert flat.is_active(v, t) == column.is_active(v, t)
                assert flat.next_active(v, t) == column.next_active(v, t)


class TestQueries:
    def test_awake_matches_offsets(self, table):
        for t in range(40):
            awake = set(table.awake_at(t).tolist())
            expected = {
                v for v in range(8)
                if (t % 20) in set(table.offsets_matrix[v].tolist())
            }
            assert awake == expected

    @given(st.integers(1, 30), st.integers(1, 4), st.integers(0, 200))
    @settings(max_examples=60)
    def test_is_active_consistent_with_awake(self, period, a, t):
        table = ScheduleTable.random(
            10, period, np.random.default_rng(period), min(a, period))
        awake = table.awake_at(t).tolist()
        assert awake == sorted(awake)
        assert set(awake) == {v for v in range(10) if table.is_active(v, t)}

    def test_next_active_minimal(self, table):
        for v in range(8):
            for t in (0, 5, 17, 50):
                nxt = table.next_active(v, t)
                assert nxt >= t
                assert table.is_active(v, nxt)
                for u in range(t, nxt):
                    assert not table.is_active(v, u)

    def test_next_wake_after_strict_and_minimal(self, table):
        for t in (0, 5, 19, 20, 41):
            arr = _next_wakes(table, t)
            for v in range(8):
                nxt = int(arr[v])
                assert t < nxt <= t + table.period
                assert table.is_active(v, nxt)
                for u in range(t + 1, nxt):
                    assert not table.is_active(v, u)

    def test_next_wake_after_boundaries(self):
        # Node active at t itself must map to its *next* active slot,
        # which with multiple slots per period may be inside the same
        # period rather than a full period away.
        table = ScheduleTable(6, np.asarray([[0, 3], [1, 4]]))
        assert _next_wakes(table, 0, [0])[0] == 3
        assert _next_wakes(table, 3, [0])[0] == 6
        assert _next_wakes(table, 6, [0])[0] == 9
        assert _next_wakes(table, 2, nodes=[0, 0]).tolist() == [3, 3]

    def test_offsets_shim_first_slot(self, table):
        assert np.array_equal(table.offsets, table.offsets_matrix[:, 0])

    @given(st.integers(1, 30), st.data())
    @settings(max_examples=40)
    def test_wakes_per_period_equal_a(self, period, data):
        a = data.draw(st.integers(1, period))
        rng = np.random.default_rng(7)
        table = ScheduleTable.random(4, period, rng, a)
        for v in range(4):
            wakes = sum(table.is_active(v, t) for t in range(period))
            assert wakes == a
        # Each node sits in exactly a of the per-phase wake lists.
        listed = np.concatenate(table.wake_lists)
        assert np.bincount(listed, minlength=4).tolist() == [a] * 4


class TestEngineIntegration:
    def test_flood_completes_on_multislot(self, line5):
        from repro.net.packet import FloodWorkload
        from repro.protocols import make_protocol
        from repro.sim.engine import SimConfig, run_flood

        rng = np.random.default_rng(1)
        schedules = ScheduleTable.random(5, 10, rng, 2)
        result = run_flood(
            line5, schedules, FloodWorkload(2), make_protocol("dbao"),
            np.random.default_rng(2), SimConfig(coverage_target=1.0),
        )
        assert result.completed

    def test_experiment_registered(self):
        from repro.experiments import experiment_ids

        assert "slot-split" in experiment_ids()
