"""Stack-wide phase rows against per-replication reference loops.

``candidate_rows``, OPT's and DCA's ``_phase_rows`` build a slot's rows
for the whole replication stack from one ``(R, n)`` wake matrix. The
references below walk the stack one replication at a time through each
table's own wake list, the way the serial proposal loops traverse it;
both must produce the same rows in the same order.
"""

import numpy as np
import pytest

from repro.net.generators import random_geometric_topology
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.net.topology import SOURCE
from repro.protocols import make_protocol
from repro.protocols._repbatch import candidate_rows, flatten_sender_lists
from repro.protocols.base import PhaseCache


def _reference_candidate_rows(schedules_list, t, sizes, starts, flat,
                              with_sender_awake=False):
    kk, ss, rr, aw_rows = [], [], [], []
    for k, sched in enumerate(schedules_list):
        aw = sched.awake_at(t)
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


def _reference_opt_rows(schedules_list, designated, t):
    rows = []
    for k, sched in enumerate(schedules_list):
        for r in sched.awake_at(t).tolist():
            if r != SOURCE and designated[r] >= 0:
                rows.append((k, int(designated[r]), r))
    rows.sort()  # (replication, server, receiver)
    return tuple(np.asarray([row[i] for row in rows], dtype=np.int64)
                 for i in range(3))


def _reference_dca_rows(schedules_list, parents, t):
    kk, ss, rr, aw_rows = [], [], [], []
    for k, sched in enumerate(schedules_list):
        aw = sched.awake_at(t)
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
    # 20 / 10 / 5 / 2 % duty: periods 5, 10, 20 and 50, LCM 100.
    "mixed-duty": lambda n: _duty_stack(n, [5, 10, 20, 50, 50, 20], 3),
    "multi-slot": lambda n: _slot_split_stack(n, 5),
    # 31 * 32 * 33 phases exceed PHASE_CACHE_CAP: nothing memoised.
    "past-cap": lambda n: _duty_stack(n, [31, 32, 33], 7),
}


#: Every phase of the memoised stacks (LCMs 100 and 40), then slots far
#: past them.
SLOTS = sorted(set(range(120)) | set(
    np.random.default_rng(1).integers(0, 10**6, size=40).tolist()))


class TestWakeMatrix:
    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_rows_are_each_tables_wake_list(self, name, topo):
        schedules = STACKS[name](topo.n_nodes)
        cache = PhaseCache(schedules)
        for t in SLOTS:
            wake = cache.wake(t)
            assert wake.shape == (len(schedules), topo.n_nodes)
            for k, sched in enumerate(schedules):
                assert np.flatnonzero(wake[k]).tolist() \
                    == sched.awake_at(t).tolist()

    def test_past_cap_stack_memoises_nothing(self, topo):
        assert PhaseCache(STACKS["past-cap"](topo.n_nodes)).period == 0

    def test_offsets_stack_edge_pads_narrow_tables(self, topo):
        schedules = STACKS["multi-slot"](topo.n_nodes)
        off = PhaseCache(schedules).offsets_stack
        assert off.shape == (4, topo.n_nodes, 3)
        single = schedules[1].offsets
        assert (off[1] == single[:, None]).all()
        assert (off[2] == schedules[2].offsets_matrix[:, :1]).all()
        assert (off[3, :, 2] == off[3, :, 1]).all()


class TestCandidateRows:
    @pytest.mark.parametrize("with_sender_awake", [False, True])
    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_matches_per_replication_loop(self, name, with_sender_awake,
                                          topo):
        schedules = STACKS[name](topo.n_nodes)
        rng = np.random.default_rng(2)
        # Candidate lists in a protocol-like, non-sorted order, some
        # empty.
        lists = [rng.permutation(topo.in_neighbors(r))[
            : int(rng.integers(0, 6))] for r in range(topo.n_nodes)]
        sizes, starts, flat = flatten_sender_lists(lists)
        cache = PhaseCache(schedules)
        gaps = 0
        for t in SLOTS:
            wake = cache.wake(t)
            gaps += int((~wake.any(axis=1)).any())
            _assert_rows_equal(
                candidate_rows(wake, sizes, starts, flat,
                               with_sender_awake=with_sender_awake),
                _reference_candidate_rows(schedules, t, sizes, starts, flat,
                                          with_sender_awake),
            )
        # Phases where some replication has no waking node at all.
        assert gaps > 0

    def test_no_waking_node_anywhere(self, topo):
        schedules = [ScheduleTable(4, np.full(topo.n_nodes, 3))] * 2
        sizes, starts, flat = flatten_sender_lists(
            [topo.in_neighbors(r) for r in range(topo.n_nodes)])
        rows = candidate_rows(PhaseCache(schedules).wake(1), sizes, starts,
                              flat, with_sender_awake=True)
        _assert_rows_equal(rows, _reference_candidate_rows(
            schedules, 1, sizes, starts, flat, True))
        assert rows[0].size == 0


class TestProtocolPhaseRows:
    def _prepared(self, name, topo, schedules):
        proto = make_protocol(name)
        rngs = [np.random.default_rng(k) for k in range(len(schedules))]
        proto.prepare_reps(topo, schedules, FloodWorkload(3), rngs)
        return proto

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_opt_matches_per_replication_loop(self, name, topo):
        schedules = STACKS[name](topo.n_nodes)
        proto = self._prepared("opt", topo, schedules)
        for t in SLOTS:
            _assert_rows_equal(
                proto._phase_rows(t),
                _reference_opt_rows(schedules, proto._designated, t))

    @pytest.mark.parametrize("name", sorted(STACKS))
    def test_dca_matches_per_replication_loop(self, name, topo):
        schedules = STACKS[name](topo.n_nodes)
        proto = self._prepared("dca", topo, schedules)
        for t in SLOTS:
            _assert_rows_equal(
                proto._phase_rows(t),
                _reference_dca_rows(schedules, proto._rep_parent, t))
