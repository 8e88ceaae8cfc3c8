"""Phase tables against per-replication reference loops.

``candidate_rows`` and every protocol's
:class:`~repro.protocols.base.PhaseTable` build a stack's rows once, one
wake period per replication, from the stack's wake triples. The
references below walk the stack one replication at a time through each
table's own wake list, the way the serial proposal loops traverse it: a
slot's served rows must equal them in the same order, and each
replication's served rows must equal its rows built alone.
"""

import numpy as np
import pytest

from repro.net.generators import random_geometric_topology
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.net.topology import SOURCE
from repro.protocols import available_protocols, make_protocol
from repro.protocols._repbatch import candidate_rows, flatten_sender_lists
from repro.protocols.base import PhaseTable, WakeStack


def _reps(schedules_list, reps):
    return range(len(schedules_list)) if reps is None else reps


def _reference_candidate_rows(schedules_list, t, sizes, starts, flat,
                              with_sender_awake=False, reps=None):
    kk, ss, rr, aw_rows = [], [], [], []
    for k in _reps(schedules_list, reps):
        aw = schedules_list[k].awake_at(t)
        awake = set(aw.tolist())
        for r in aw.tolist():
            if r == SOURCE:
                continue
            for s in flat[starts[r]: starts[r] + sizes[r]].tolist():
                kk.append(k)
                ss.append(s)
                rr.append(r)
                aw_rows.append(s in awake)
    out = tuple(np.asarray(a, dtype=np.int64) for a in (kk, ss, rr))
    if with_sender_awake:
        return out + (np.asarray(aw_rows, dtype=bool),)
    return out


def _reference_opt_rows(schedules_list, designated, t, reps=None):
    rows = []
    for k in _reps(schedules_list, reps):
        for r in schedules_list[k].awake_at(t).tolist():
            if r != SOURCE and designated[r] >= 0:
                rows.append((k, int(designated[r]), r))
    rows.sort()  # (replication, server, receiver)
    return tuple(np.asarray([row[i] for row in rows], dtype=np.int64)
                 for i in range(3))


def _reference_dca_rows(schedules_list, parents, t, reps=None):
    kk, ss, rr, aw_rows = [], [], [], []
    for k in _reps(schedules_list, reps):
        aw = schedules_list[k].awake_at(t)
        awake = set(aw.tolist())
        for r in aw.tolist():
            par = int(parents[k, r])
            if r != SOURCE and par >= 0:
                kk.append(k)
                ss.append(par)
                rr.append(r)
                aw_rows.append(par in awake)
    return tuple(np.asarray(a, dtype=np.int64) for a in (kk, ss, rr)) + (
        np.asarray(aw_rows, dtype=bool),)


def _assert_rows_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()


@pytest.fixture(scope="module")
def topo():
    return random_geometric_topology(
        24, area_m=120.0, rng=np.random.default_rng(11))


def _duty_stack(n, periods, seed):
    rng = np.random.default_rng(seed)
    return [ScheduleTable.random(n, p, rng) for p in periods]


def _slot_split_stack(n, seed):
    # One, two and three wake slots per period, plus a single-slot
    # table: the offsets stack edge-pads the narrower ones.
    rng = np.random.default_rng(seed)
    return [
        ScheduleTable.random(n, 20, rng, 3),
        ScheduleTable.random(n, 10, rng),
        ScheduleTable.random(n, 20, rng, 1),
        ScheduleTable.random(n, 40, rng, 2),
    ]


STACKS = {
    # 20 / 10 / 5 / 2 % duty: periods 5, 10, 20 and 50.
    "mixed-duty": lambda n: _duty_stack(n, [5, 10, 20, 50, 50, 20], 3),
    "multi-slot": lambda n: _slot_split_stack(n, 5),
    # Periods 31, 32 and 33: their least common multiple has 32,736
    # phases, more than a memo of the whole stack's phases could hold.
    "past-cap": lambda n: _duty_stack(n, [31, 32, 33], 7),
    # The paper's Fig. 10/11 sweep, 2% to 20% duty in 2% steps: a least
    # common multiple of 71,400.
    "full-scale": lambda n: _duty_stack(
        n, [50, 25, 17, 12, 10, 8, 7, 6, 6, 5], 9),
}


#: The first 120 slots, then slots far past every period and past 10^7.
SLOTS = sorted(set(range(120)) | set(
    np.random.default_rng(1).integers(0, 10**6, size=40).tolist())
    | {10**7 + 3, 10**7 + 71400, 2**40 + 17})


def _executing(R, t):
    """A slot-dependent subset of replications (ascending, non-empty)
    standing in for those executing slot ``t``."""
    if t % 3 == 0:
        return np.arange(R)
    keep = (np.arange(R) + t) % 3 != 0
    keep[t % R] = True
    return np.flatnonzero(keep)


class TestWakeMatrix:
    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_rows_are_each_tables_wake_list(self, name, topo):
        schedules = STACKS[name](topo.n_nodes)
        wakes = WakeStack(schedules)
        for t in SLOTS:
            wake = wakes.wake(t)
            assert wake.shape == (len(schedules), topo.n_nodes)
            for k, sched in enumerate(schedules):
                assert np.flatnonzero(wake[k]).tolist() \
                    == sched.awake_at(t).tolist()

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_triples_list_one_period_of_wakes(self, name, topo):
        schedules = STACKS[name](topo.n_nodes)
        R = len(schedules)
        key, kk, nodes = WakeStack(schedules).triples()
        assert (np.diff(key) >= 0).all()
        want = [(p * R + k, k, v)
                for k, sched in enumerate(schedules)
                for p in range(sched.period)
                for v in sched.awake_at(p).tolist()]
        assert sorted(want) == list(zip(key.tolist(), kk.tolist(),
                                        nodes.tolist()))

    def test_offsets_stack_edge_pads_narrow_tables(self, topo):
        schedules = STACKS["multi-slot"](topo.n_nodes)
        off = WakeStack(schedules).offsets_stack
        assert off.shape == (4, topo.n_nodes, 3)
        single = schedules[1].offsets
        assert (off[1] == single[:, None]).all()
        assert (off[2] == schedules[2].offsets_matrix[:, :1]).all()
        assert (off[3, :, 2] == off[3, :, 1]).all()


def _lists(topo):
    # Candidate lists in a protocol-like, non-sorted order, some empty.
    rng = np.random.default_rng(2)
    return flatten_sender_lists([rng.permutation(topo.in_neighbors(r))[
        : int(rng.integers(0, 6))] for r in range(topo.n_nodes)])


def _candidate_table(schedules, lists, with_sender_awake):
    wakes = WakeStack(schedules)
    return PhaseTable(wakes, *candidate_rows(
        wakes, *lists, with_sender_awake=with_sender_awake))


class TestCandidateRows:
    @pytest.mark.parametrize("with_sender_awake", [False, True])
    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_matches_per_replication_loop(self, name, with_sender_awake,
                                          topo):
        schedules = STACKS[name](topo.n_nodes)
        lists = _lists(topo)
        table = _candidate_table(schedules, lists, with_sender_awake)
        gaps = 0
        for t in SLOTS:
            reps = _executing(len(schedules), t)
            gaps += int(any(schedules[k].awake_at(t).size == 0
                            for k in reps.tolist()))
            _assert_rows_equal(
                table.rows(t, reps),
                _reference_candidate_rows(schedules, t, *lists,
                                          with_sender_awake, reps.tolist()),
            )
        # Phases where some replication has no waking node at all.
        assert gaps > 0

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_each_replication_serves_its_rows_built_alone(self, name, topo):
        schedules = STACKS[name](topo.n_nodes)
        lists = _lists(topo)
        table = _candidate_table(schedules, lists, True)
        alone = [_candidate_table([s], lists, True) for s in schedules]
        # Exactly one period of rows per replication.
        assert len(table) == sum(len(a) for a in alone)
        for t in SLOTS:
            for k in _executing(len(schedules), t).tolist():
                kk, *rest = table.rows(t, np.asarray([k]))
                kk0, *rest0 = alone[k].rows(t, np.zeros(1, dtype=np.int64))
                assert (kk == k).all() and kk.size == kk0.size
                _assert_rows_equal(rest, rest0)

    def test_no_waking_node_anywhere(self, topo):
        schedules = [ScheduleTable(4, np.full(topo.n_nodes, 3))] * 2
        lists = flatten_sender_lists(
            [topo.in_neighbors(r) for r in range(topo.n_nodes)])
        rows = _candidate_table(schedules, lists, True).rows(1, np.arange(2))
        _assert_rows_equal(rows, _reference_candidate_rows(
            schedules, 1, *lists, True))
        assert rows[0].size == 0


def _prepared(name, topo, schedules):
    proto = make_protocol(name)
    rngs = [np.random.default_rng(k) for k in range(len(schedules))]
    proto.prepare_reps(topo, schedules, FloodWorkload(3), rngs)
    return proto


#: Table columns that fuse the replication id into a flat index, with
#: the stride of one replication (DBAO's belief-row and possession-row
#: gather indices).
def _rep_strides(name, proto, n):
    if name == "dbao":
        max_deg = proto._rep_belief._words.shape[2]
        return {5: n * max_deg, 6: n}
    return {}


class TestProtocolPhaseRows:
    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_opt_matches_per_replication_loop(self, name, topo):
        schedules = STACKS[name](topo.n_nodes)
        proto = _prepared("opt", topo, schedules)
        for t in SLOTS:
            reps = _executing(len(schedules), t)
            _assert_rows_equal(
                proto._table.rows(t, reps),
                _reference_opt_rows(schedules, proto._designated, t,
                                    reps.tolist()))

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_dca_matches_per_replication_loop(self, name, topo):
        schedules = STACKS[name](topo.n_nodes)
        proto = _prepared("dca", topo, schedules)
        for t in SLOTS:
            reps = _executing(len(schedules), t)
            _assert_rows_equal(
                proto._table.rows(t, reps),
                _reference_dca_rows(schedules, proto._rep_parent, t,
                                    reps.tolist()))

    @pytest.mark.parametrize("name", sorted(STACKS))
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_each_replication_serves_its_rows_built_alone(
            self, protocol, name, topo):
        schedules = STACKS[name](topo.n_nodes)
        proto = _prepared(protocol, topo, schedules)
        alone = [_prepared(protocol, topo, [s]) for s in schedules]
        assert len(proto._table) == sum(len(a._table) for a in alone)
        strides = _rep_strides(protocol, proto, topo.n_nodes)
        for t in SLOTS:
            for k in _executing(len(schedules), t).tolist():
                kk, *rest = proto._table.rows(t, np.asarray([k]))
                kk0, *rest0 = alone[k]._table.rows(
                    t, np.zeros(1, dtype=np.int64))
                assert (kk == k).all() and kk.size == kk0.size
                rest = [c - k * strides[i + 1] if i + 1 in strides else c
                        for i, c in enumerate(rest)]
                _assert_rows_equal(rest, rest0)
