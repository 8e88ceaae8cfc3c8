"""Tests for the vectorized schedule table and the frontier wake query."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.generators import line_topology
from repro.net.packet import FloodWorkload
from repro.net.schedule import (
    ScheduleTable,
    duty_ratio_to_period,
    slots_until_phase,
)
from repro.protocols.base import NEVER, RepSimView


def _first_active(table, v, t):
    """The per-node model: the first slot ``>= t`` at which ``v`` is
    active, found by scanning slot by slot."""
    while not table.is_active(v, t):
        t += 1
    return t


def _view(*tables):
    """A :class:`RepSimView` stacking one replication per table."""
    n = len(tables[0])
    has = np.zeros((len(tables), 1, n), dtype=bool)
    return RepSimView(line_topology(n - 1), list(tables), FloodWorkload(1),
                      has, np.full(has.shape, -1, dtype=np.int64))


def _next_wakes(table, t, nodes=None):
    """Each node's first wake strictly after ``t`` through the engine's
    frontier query, :meth:`RepSimView.next_wakes`, on a one-table stack."""
    nodes = np.arange(len(table)) if nodes is None else np.asarray(nodes)
    wakes = _view(table).next_wakes(t, np.zeros(1, dtype=np.int64), nodes)
    return wakes.min(axis=2)[0]


class TestSlotsUntilPhase:
    """Boundary cases of the phase-arithmetic helper.

    ``slots_until_phase(offsets, t, period)`` is the *inclusive* wait —
    0 when ``t`` already sits on the phase — which is why the strict
    frontier query :meth:`RepSimView.next_wakes` asks from ``t + 1``.
    """

    def test_zero_wait_on_own_phase(self):
        assert slots_until_phase(3, 3, 10) == 0
        assert slots_until_phase(0, 0, 10) == 0
        assert slots_until_phase(0, 20, 10) == 0  # t % period == 0

    def test_wraps_past_period_boundary(self):
        assert slots_until_phase(1, 9, 10) == 2
        assert slots_until_phase(0, 1, 10) == 9

    def test_period_one_is_always_zero(self):
        offsets = np.zeros(4, dtype=np.int64)
        for t in (0, 1, 99):
            assert np.all(slots_until_phase(offsets, t, 1) == 0)

    def test_vectorized_matches_scalar(self):
        offsets = np.array([0, 1, 5, 9])
        for t in (0, 9, 10, 37):
            vec = slots_until_phase(offsets, t, 10)
            for o, w in zip(offsets.tolist(), vec.tolist()):
                assert w == slots_until_phase(o, t, 10)


class TestDutyConversions:
    @pytest.mark.parametrize("ratio,period", [(0.05, 20), (0.02, 50), (0.1, 10), (1.0, 1)])
    def test_ratio_to_period(self, ratio, period):
        assert duty_ratio_to_period(ratio) == period

    def test_period_to_ratio(self):
        # A table's duty ratio is its active slots over its period.
        assert ScheduleTable(20, [0]).duty_ratio == pytest.approx(0.05)
        assert ScheduleTable(10, [[0, 5]]).duty_ratio == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            duty_ratio_to_period(0.0)
        with pytest.raises(ValueError):
            duty_ratio_to_period(1.5)


class TestWorkingSchedule:
    """One sensor's working schedule (Sec. III-A) as a one-row table."""

    def test_single_slot_schedule(self):
        table = ScheduleTable(20, [7])
        assert table.duty_ratio == pytest.approx(0.05)
        assert table.is_active(0, 7) and table.is_active(0, 27)
        assert not table.is_active(0, 8)

    def test_next_active_same_period(self):
        table = ScheduleTable(10, [4])
        assert table.next_active(0, 0) == 4
        assert table.next_active(0, 4) == 4  # active now
        assert table.next_active(0, 5) == 14  # wrapped

    def test_next_active_after_forces_progress(self):
        table = ScheduleTable(10, [4])
        assert table.next_active(0, 4 + 1) == 14

    def test_sleep_latency(self):
        # Fig. 1: sensor 1 receives at slot 0, must wait for sensor 2's
        # wake at slot 3 -> sleep latency 3.
        table = ScheduleTable(5, [3])
        assert table.next_active(0, 0) - 0 == 3

    def test_multi_slot_schedule(self):
        table = ScheduleTable(10, [[2, 7]])
        assert table.duty_ratio == pytest.approx(0.2)
        assert table.next_active(0, 3) == 7
        assert table.next_active(0, 8) == 12

    def test_active_slots_in_window(self):
        table = ScheduleTable(5, [1])
        assert [t for t in range(16) if table.is_active(0, t)] == [1, 6, 11]

    def test_validation(self):
        with pytest.raises(ValueError):
            ScheduleTable(0, [0])
        with pytest.raises(ValueError):
            ScheduleTable(5, np.empty((1, 0), dtype=np.int64))
        with pytest.raises(ValueError):
            ScheduleTable(5, [5])
        with pytest.raises(ValueError):
            ScheduleTable(5, [2]).next_active(0, -1)

    @given(st.integers(1, 60), st.data())
    @settings(max_examples=80)
    def test_next_active_is_active_and_minimal(self, period, data):
        offset = data.draw(st.integers(0, period - 1))
        t = data.draw(st.integers(0, 500))
        table = ScheduleTable(period, [offset])
        nxt = table.next_active(0, t)
        assert nxt >= t
        assert table.is_active(0, nxt)
        # Minimality: no active slot in [t, nxt).
        for u in range(t, nxt):
            assert not table.is_active(0, u)

    @given(st.integers(1, 40), st.data())
    @settings(max_examples=50)
    def test_periodicity(self, period, data):
        offset = data.draw(st.integers(0, period - 1))
        t = data.draw(st.integers(0, 200))
        table = ScheduleTable(period, [offset])
        assert table.is_active(0, t) == table.is_active(0, t + period)


class TestScheduleTable:
    def test_awake_lists_partition_nodes(self, rng):
        table = ScheduleTable.random(50, 10, rng)
        all_nodes = np.concatenate([table.awake_at(t) for t in range(10)])
        assert sorted(all_nodes.tolist()) == list(range(50))

    def test_awake_matches_offsets(self, rng):
        table = ScheduleTable.random(30, 7, rng)
        for t in range(14):
            awake = set(table.awake_at(t).tolist())
            expected = {v for v in range(30) if table.offsets[v] == t % 7}
            assert awake == expected

    def test_next_active_agrees_with_object_model(self, rng):
        for a in (1, 3):
            table = ScheduleTable.random(20, 12, rng, a)
            for v in range(20):
                for t in (0, 5, 30, 100):
                    assert table.next_active(v, t) == _first_active(table, v, t)

    def test_next_active_boundaries(self):
        # Inclusive semantics at the period boundary: a node whose
        # offset matches t % period is active *now* (wait 0), unlike
        # the strict frontier query.
        table = ScheduleTable(period=4, offsets=[0, 2])
        assert [table.next_active(v, 0) for v in (0, 1)] == [0, 2]
        assert [table.next_active(v, 4) for v in (0, 1)] == [4, 6]
        assert [table.next_active(v, 3) for v in (0, 1)] == [4, 6]
        one = ScheduleTable(period=1, offsets=[0])
        for t in (0, 5):
            assert one.next_active(0, t) == t

    def test_is_active(self, rng):
        table = ScheduleTable(period=4, offsets=[0, 1, 2, 3])
        assert table.is_active(0, 0) and table.is_active(0, 4)
        assert not table.is_active(0, 1)

    def test_is_active_rejects_negative_slots(self):
        # -5 % 5 == 0 would otherwise read as node 0's phase.
        table = ScheduleTable(5, [0, 1, 2])
        with pytest.raises(ValueError, match="non-negative"):
            table.is_active(0, -5)
        with pytest.raises(ValueError, match="non-negative"):
            ScheduleTable(5, [[0, 3]]).is_active(0, -2)

    def test_from_duty_ratio(self, rng):
        table = ScheduleTable.random(10, duty_ratio_to_period(0.05), rng)
        assert table.period == 20
        assert table.duty_ratio == pytest.approx(0.05)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ScheduleTable(period=0, offsets=[0])
        with pytest.raises(ValueError):
            ScheduleTable(period=5, offsets=[5])
        with pytest.raises(ValueError, match="at least one node"):
            ScheduleTable(period=5, offsets=[])
        with pytest.raises(ValueError):
            ScheduleTable(period=5, offsets=np.zeros((2, 2, 1), dtype=int))
        with pytest.raises(ValueError):
            ScheduleTable.random(0, 5, rng)
        table = ScheduleTable(period=5, offsets=[0, 1])
        with pytest.raises(ValueError):
            table.awake_at(-1)

    @pytest.mark.parametrize("offsets", [
        [0.5, 1.7, 4.9],
        [0.0, 1.0],
        [True, False],
        [[0.0, 2.0]],
    ], ids=["fractional", "whole-floats", "bools", "float-matrix"])
    def test_non_integer_offsets_rejected(self, offsets):
        # Floats would truncate and bools would read as slots 1 / 0.
        with pytest.raises(ValueError, match="integers"):
            ScheduleTable(5, offsets)

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.uint8, np.int32, np.uint64, np.int64])
    def test_integer_dtypes_accepted(self, dtype):
        table = ScheduleTable(5, np.asarray([[4, 0], [1, 2]], dtype=dtype))
        assert table.offsets_matrix.dtype == np.int64
        assert table.offsets.tolist() == [4, 1]
        assert table.awake_at(4).tolist() == [0]

    @given(st.integers(1, 50), st.integers(1, 40), st.integers(0, 300),
           st.integers(1, 4))
    @settings(max_examples=60)
    def test_next_active_property(self, n_nodes, period, t, a):
        a = min(a, period)
        rng = np.random.default_rng(4)
        table = ScheduleTable.random(n_nodes, period, rng, a)
        for v in range(min(n_nodes, 8)):
            nxt = table.next_active(v, t)
            assert t <= nxt < t + period
            assert table.is_active(v, nxt)
            # Minimality: no active slot in [t, nxt).
            for u in range(t, nxt):
                assert not table.is_active(v, u)

    @pytest.mark.parametrize("a", [1, 2, 4])
    def test_random_consumes_the_direct_draws(self, a):
        # One integers() call for a = 1, one choice() per node for
        # a > 1: the generator ends where those draws leave it, which
        # keeps every trajectory and store key of earlier releases.
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        table = ScheduleTable.random(30, 20, rng, a)
        if a == 1:
            expected = ref.integers(0, 20, size=30)[:, None]
        else:
            expected = np.stack([ref.choice(20, size=a, replace=False)
                                 for _ in range(30)])
        assert np.array_equal(table.offsets_matrix, expected)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestNextWakeAfter:
    """Boundary behaviour of the quiescence-frontier primitive,
    :meth:`RepSimView.next_wakes`.

    The query is strictly-after: a node whose active phase is exactly
    ``t``'s phase maps to its next active slot, never ``t``.
    """

    def test_strictly_after_at_own_phase(self):
        # t % period == offset: the node is active *now*, so the next
        # wake is one full period away.
        table = ScheduleTable(period=5, offsets=[0, 2, 4])
        assert _next_wakes(table, 0).tolist() == [5, 2, 4]
        assert _next_wakes(table, 2).tolist() == [5, 7, 4]
        assert _next_wakes(table, 4).tolist() == [5, 7, 9]

    def test_period_boundary(self):
        # t on a period boundary (t % period == 0) with offset 0 —
        # the off-by-one trap: must return t + period, not t.
        table = ScheduleTable(period=4, offsets=[0, 0])
        for t in (0, 4, 8, 400):
            assert _next_wakes(table, t).tolist() == [t + 4] * 2

    def test_period_one_always_next_slot(self):
        # Always-on nodes: strictly-after collapses to t + 1.
        table = ScheduleTable(period=1, offsets=[0, 0, 0])
        for t in (0, 1, 17):
            assert _next_wakes(table, t).tolist() == [t + 1] * 3

    def test_long_period_query_allocates_no_period_table(self):
        # A query costs its gathered offsets, not a table as long as the
        # period: at T = 10^6 one query stays far below 1 MiB.
        period = 10**6
        table = ScheduleTable(period=period,
                              offsets=[0, 3, 500_000, 999_999])
        view = _view(table)
        rep_ids, nodes = np.zeros(1, dtype=np.int64), np.arange(4)
        view.next_wakes(0, rep_ids, nodes)
        tracemalloc.start()
        try:
            wakes = view.next_wakes(499_999, rep_ids, nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # The slot-by-slot scan over one period after the query slot.
        slots = np.arange(500_000, 500_000 + period)
        for v in range(4):
            first = slots[table.offsets[v] == slots % period][0]
            assert wakes[0, v].min() == first

    def test_node_subset_with_duplicates(self):
        table = ScheduleTable(period=6, offsets=[0, 1, 2, 3])
        out = _next_wakes(table, 2, nodes=[3, 1, 1])
        assert out.tolist() == [3, 7, 7]

    def test_agrees_with_object_model(self, rng):
        for a in (1, 3):
            table = ScheduleTable.random(15, 7, rng, a)
            for t in (0, 6, 7, 13, 50):
                arr = _next_wakes(table, t)
                for v in range(15):
                    assert arr[v] == _first_active(table, v, t + 1)

    @given(st.integers(1, 40), st.integers(0, 200), st.integers(1, 4))
    @settings(max_examples=60)
    def test_property_minimal_strict_wake(self, period, t, a):
        table = ScheduleTable.random(12, period, np.random.default_rng(8),
                                     min(a, period))
        arr = _next_wakes(table, t)
        assert np.all(arr > t)
        assert np.all(arr <= t + period)
        for v in range(12):
            nxt = int(arr[v])
            assert table.is_active(v, nxt)
            # minimality: no active slot strictly between t and nxt
            assert table.next_active(v, t + 1) == nxt

    def test_uniform_period_lookup(self, rng):
        tables = [ScheduleTable.random(9, 6, rng, a) for a in (1, 2, 2)]
        view = _view(*tables)
        assert set(view.periods.tolist()) == {6}
        nodes = np.arange(9)
        for t in (0, 5, 6, 11, 60):
            wakes = view.next_wakes(t, np.arange(3), nodes)
            for k, table in enumerate(tables):
                for v in nodes.tolist():
                    assert wakes[k, v].min() == _first_active(table, v, t + 1)

    def test_mixed_period_formula(self, rng):
        tables = [ScheduleTable.random(9, p, rng, a)
                  for p, a in ((5, 1), (7, 2), (12, 4))]
        view = _view(*tables)
        assert view.periods.tolist() == [5, 7, 12]
        nodes = np.arange(9)
        for t in (0, 4, 11, 35, 83):
            wakes = view.next_wakes(t, np.arange(3), nodes)
            for k, table in enumerate(tables):
                for v in nodes.tolist():
                    assert wakes[k, v].min() == _first_active(table, v, t + 1)

    def test_edge_padded_mixed_slot_counts(self):
        # One-, three- and two-slot tables: the offsets stack repeats a
        # narrower table's last offset, so its padded columns wake with
        # that slot and every per-node minimum is unchanged.
        tables = [
            ScheduleTable(10, [0, 4, 9]),
            ScheduleTable(10, [[1, 5, 8], [0, 2, 3], [9, 6, 7]]),
            ScheduleTable(20, [[3, 12], [0, 19], [7, 8]]),
        ]
        view = _view(*tables)
        assert view.offsets_stack.shape == (3, 3, 3)
        wakes = view.next_wakes(9, np.arange(3), np.arange(3))
        assert wakes.shape == (3, 3, 3)
        assert (wakes[0] == wakes[0, :, :1]).all()
        assert (wakes[2, :, 2] == wakes[2, :, 1]).all()
        assert wakes.min(axis=2).tolist() == [
            [10, 14, 19], [11, 10, 16], [12, 19, 27]]

    def test_precomputed_off_nodes_gather(self, rng):
        tables = [ScheduleTable.random(8, p, rng, 2) for p in (6, 6, 9)]
        view = _view(*tables)
        nodes = np.asarray([5, 0, 5, 7, 2])
        off_nodes = view.offsets_stack[:, nodes]
        for rep_ids in ([0, 1, 2], [2, 0], [1]):
            rep_ids = np.asarray(rep_ids)
            for t in (0, 3, 17):
                assert np.array_equal(
                    view.next_wakes(t, rep_ids, nodes, off_nodes),
                    view.next_wakes(t, rep_ids, nodes))

    def test_earliest_wakes_never_when_nothing_offers(self):
        view = _view(ScheduleTable(5, [0, 2, 4]), ScheduleTable(7, [1, 3, 6]))
        rep_ids = np.arange(2)
        frontier = np.asarray([1, 2])
        none = np.zeros((2, 2), dtype=bool)
        assert view.earliest_wakes(3, rep_ids, frontier, none).tolist() \
            == [NEVER, NEVER]
        assert view.earliest_wakes(
            3, rep_ids, frontier[:0], none[:, :0]).tolist() == [NEVER, NEVER]
        some = np.asarray([[False, True], [False, False]])
        assert view.earliest_wakes(3, rep_ids, frontier, some).tolist() \
            == [4, NEVER]


class TestRandomSchedules:
    def test_respects_duty_ratio(self, rng):
        # Two active slots at duty 0.1: T = round(2 / 0.1) = 20.
        table = ScheduleTable.random(20, 20, rng, 2)
        assert table.duty_ratio == pytest.approx(0.1)
        for v in range(20):
            assert len(set(table.offsets_matrix[v].tolist())) == 2

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ScheduleTable.random(5, 10, rng, 0)
