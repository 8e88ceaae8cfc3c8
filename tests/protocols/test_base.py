"""Tests for the protocol interface, registry, and RepSimView."""

import numpy as np
import pytest

from repro.net.generators import line_topology
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.protocols._belief import RepNeighborBelief
from repro.protocols.base import (
    FloodingProtocol,
    PacketWords,
    PhaseTable,
    RepSimView,
    WakeStack,
    available_protocols,
    make_protocol,
    register_protocol,
)


class TestRegistry:
    def test_all_paper_protocols_registered(self):
        names = available_protocols()
        for expected in ("opt", "dbao", "of", "naive", "dca", "crosslayer"):
            assert expected in names

    def test_make_protocol(self):
        proto = make_protocol("dbao", overhearing=False)
        assert proto.name == "dbao"
        assert proto.overhearing is False

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            make_protocol("bogus")

    def test_duplicate_registration_rejected(self):
        class Dup(FloodingProtocol):
            name = "opt"

        with pytest.raises(ValueError, match="already registered"):
            register_protocol(Dup)

    def test_empty_name_rejected(self):
        class NoName(FloodingProtocol):
            pass

        with pytest.raises(ValueError, match="non-empty name"):
            register_protocol(NoName)


@pytest.fixture
def scratch_registry():
    """Unregister protocols a test added, keeping the global registry clean."""
    from repro.protocols import base as base_mod

    before = set(base_mod._REGISTRY)
    yield
    for name in set(base_mod._REGISTRY) - before:
        del base_mod._REGISTRY[name]


class TestInitKwargsRecording:
    """make_protocol records constructor kwargs uniformly (Fig. 9 fix)."""

    def test_records_passed_kwargs(self):
        assert make_protocol("of", opp_quantile=0.3).init_kwargs == {
            "opp_quantile": 0.3
        }
        assert make_protocol("opt").init_kwargs == {}

    def test_records_even_when_init_forgets(self, scratch_registry):
        # Regression: a protocol whose __init__ never sets init_kwargs
        # used to have its constructor args silently dropped by the
        # Fig. 9 probe reconstruction.
        @register_protocol
        class Forgetful(FloodingProtocol):
            name = "_test_forgetful"

            def __init__(self, knob=1):
                self.knob = knob  # deliberately no self.init_kwargs

        proto = make_protocol("_test_forgetful", knob=7)
        assert proto.knob == 7
        assert proto.init_kwargs == {"knob": 7}

    def test_probe_floods_reconstruct_with_recorded_kwargs(self, scratch_registry):
        # End-to-end regression for the Fig. 9 decomposition path: the
        # single-packet probe floods must rebuild the protocol with the
        # kwargs it was created with, not with defaults.
        from repro.net.packet import FloodWorkload
        from repro.net.schedule import ScheduleTable
        from repro.sim.engine import SimConfig, run_flood

        constructed = []

        @register_protocol
        class Probed(FloodingProtocol):
            name = "_test_probed"

            def __init__(self, knob=0):
                constructed.append(knob)
                self.knob = knob  # again: no self.init_kwargs

            def prepare_reps(self, topo, schedules_list, workload, rngs):
                pass

            def propose_reps(self, t, rep_ids, awake_by_rep, view):
                empty = np.empty(0, dtype=np.int64)
                return empty, empty, empty, empty

        topo = line_topology(3, prr=1.0)
        rng = np.random.default_rng(0)
        schedules = ScheduleTable.random(topo.n_nodes, 4, rng)
        proto = make_protocol("_test_probed", knob=5)
        run_flood(
            topo, schedules, FloodWorkload(1), proto, rng,
            SimConfig(max_slots=4), measure_transmission_delay=True,
        )
        assert len(constructed) >= 2  # the original plus >= 1 probe
        assert constructed == [5] * len(constructed)


class TestPhaseTable:
    """Rows built from wake sets, one wake period per replication."""

    @staticmethod
    def _table(schedules):
        # One row per wake, carrying its replication and node.
        wakes = WakeStack(schedules)
        key, kk, nodes = wakes.triples()
        return PhaseTable(wakes, key, kk, nodes)

    @staticmethod
    def _served(schedules, t, rep_ids):
        kk, nodes = [], []
        for k in rep_ids:
            aw = schedules[k].awake_at(t).tolist()
            kk += [k] * len(aw)
            nodes += aw
        return kk, nodes

    def _check(self, schedules, slots):
        table = self._table(schedules)
        R = len(schedules)
        subsets = [np.arange(R), np.arange(R)[::2], np.arange(R)[1:],
                   np.asarray([R - 1])]
        for t in slots:
            for rep_ids in subsets:
                kk, nodes = table.rows(t, rep_ids)
                assert (kk.tolist(), nodes.tolist()) \
                    == self._served(schedules, t, rep_ids.tolist()), t

    def test_holds_one_period_per_replication(self, rng):
        # Periods 4, 6 and 4 with 1, 2 and 3 wake slots: the table holds
        # each replication's wakes of one period, 1 + 2 + 3 per node,
        # however the periods mix.
        schedules = [ScheduleTable.random(5, 4, rng, 1),
                     ScheduleTable.random(5, 6, rng, 2),
                     ScheduleTable.random(5, 4, rng, 3)]
        assert len(self._table(schedules)) == 5 * (1 + 2 + 3)

    def test_serves_each_replications_own_phase(self, rng):
        schedules = [ScheduleTable.random(6, p, rng, a)
                     for p, a in ((4, 1), (6, 2), (4, 1), (5, 3))]
        self._check(schedules, list(range(130)) + [10**7 + 11, 2**40 + 3])

    def test_serves_long_period_mixes(self, rng):
        # Periods 31, 32 and 33: 32,736 phases of their least common
        # multiple; each replication's table still holds one period.
        schedules = [ScheduleTable.random(6, p, rng) for p in (31, 32, 33)]
        self._check(schedules, [0, 5, 32741, 32736 * 3 + 7, 10**7 + 29])

    def test_uniform_stack_serves_a_slice(self, rng):
        schedules = [ScheduleTable.random(8, 5, rng, 2) for _ in range(3)]
        table = self._table(schedules)
        for t in range(10):
            kk, _ = table.rows(t, np.arange(3))
            assert np.shares_memory(kk, table.cols[0])
        self._check(schedules, range(25))

    def test_phases_without_wakes_serve_nothing(self):
        schedules = [ScheduleTable(4, np.full(3, 3))] * 2
        table = self._table(schedules)
        assert len(table) == 6
        kk, nodes = table.rows(1, np.arange(2))
        assert kk.size == nodes.size == 0
        assert table.rows(7, np.asarray([1]))[1].tolist() == [0, 1, 2]


@pytest.fixture
def view(line5, rng):
    schedules = ScheduleTable.random(5, 5, rng)
    workload = FloodWorkload(3)
    has = np.zeros((1, 3, 5), dtype=bool)
    arrival = np.full((1, 3, 5), -1, dtype=np.int64)
    # Source has all three; node 1 has packet 1 (arrived slot 4).
    has[0, :, 0] = True
    arrival[0, :, 0] = [0, 1, 2]
    has[0, 1, 1] = True
    arrival[0, 1, 1] = 4
    return RepSimView(line5, [schedules], workload, has, arrival)


class TestSimView:
    """The protocols' window onto one replication (R = 1)."""

    def test_holds(self, view):
        # The engine-maintained possession words: packet m -> bit m of
        # the single word three packets need.
        assert view.has_packed.shape == (1, 5, 1)
        assert int(view.has_packed[0, 0, 0]) == 0b111
        assert int(view.has_packed[0, 1, 0]) == 0b010
        assert int(view.has_packed[0, 3, 0]) == 0

    def test_held_packets(self, view):
        assert view.held_counts[0].tolist() == [3, 1, 0, 0, 0]

    def test_arrival_slot(self, view):
        # Earliest arrival wins among the candidate packets.
        cand = np.asarray([[False, True, True], [False, True, False]])
        heads = view.fcfs_heads_masked(
            np.asarray([0, 0]), np.asarray([0, 1]), cand)
        assert heads.tolist() == [1, 1]

    def test_fcfs_head_uses_arrival_order(self, view):
        needed = np.asarray([True, True, True])
        assert view.fcfs_head(0, 0, needed) == 0  # earliest arrival at source
        needed = np.asarray([False, True, True])
        assert view.fcfs_head(0, 0, needed) == 1

    def test_fcfs_head_none(self, view):
        assert view.fcfs_head(0, 3, np.asarray([True, True, True])) is None
        assert view.fcfs_head(0, 0, np.zeros(3, dtype=bool)) is None

    def test_candidate_senders(self, view):
        needed = np.asarray([True, False, False])
        nbs = np.asarray([0, 2])  # in-neighbors of node 1
        cands = view.candidate_senders(0, nbs, needed)
        assert cands.tolist() == [0]

    def test_candidate_senders_empty(self, view):
        assert view.candidate_senders(0, np.asarray([], dtype=np.int64),
                                      np.ones(3, bool)).size == 0
        assert view.candidate_senders(0, np.asarray([0]),
                                      np.zeros(3, bool)).size == 0

    def test_oracle_accessors(self, view):
        # OPT serves receivers by their true needs: the server's
        # possession words minus the receiver's, with FCFS heads over
        # the unpacked candidates.
        hp = view.has_packed[0]
        cand_w = hp[[0, 1]] & ~hp[[1, 3]]
        assert cand_w.any(axis=1).tolist() == [True, True]
        cand = view.packet_words.unpack(cand_w)
        assert cand.tolist() == [[True, False, True], [False, True, False]]
        heads = view.fcfs_heads_masked(
            np.asarray([0, 0]), np.asarray([0, 1]), cand)
        assert heads.tolist() == [0, 1]
        # Node 1 can offer node 3 nothing once node 3 holds packet 1.
        recv = view.packet_words.pack(np.asarray([False, True, False]))
        assert not (hp[1] & ~recv).any()


#: Packet counts around the 64-bit word boundaries.
WORD_EDGES = [1, 63, 64, 65, 128, 129]


class TestPacketWords:
    """The one packet-set encoding: ceil(M / 64) uint64 words."""

    @pytest.mark.parametrize("n_packets", WORD_EDGES)
    def test_pack_then_unpack_reproduces_possession(self, n_packets):
        layout = PacketWords(n_packets)
        assert layout.n_words == -(-n_packets // 64)
        rng = np.random.default_rng(n_packets)
        has = rng.random((2, n_packets, 5)) < 0.5
        words = layout.pack(has, axis=1)
        assert words.shape == (2, 5, layout.n_words)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(
            layout.unpack(words), has.transpose(0, 2, 1))
        # Packet p is bit p % 64 of word p // 64.
        p = n_packets - 1
        assert int(layout.word[p]) == p // 64
        assert int(layout.bit[p]) == 1 << (p % 64)

    @pytest.mark.parametrize("n_packets", WORD_EDGES)
    def test_full_set_has_exactly_m_bits(self, n_packets):
        layout = PacketWords(n_packets)
        assert layout.full.shape == (layout.n_words,)
        assert sum(bin(int(w)).count("1") for w in layout.full) == n_packets
        assert layout.unpack(layout.full).all()

    @pytest.mark.parametrize("n_packets", WORD_EDGES)
    def test_coverage_counts_read_every_word(self, line5, n_packets):
        # Node 1's out-neighbors are nodes 0 and 2: node 0 holds the
        # even packets, node 2 every packet past the first word and the
        # last one.
        packets = np.arange(n_packets)
        has = np.zeros((1, n_packets, 5), dtype=bool)
        has[0, :, 0] = packets % 2 == 0
        has[0, :, 2] = (packets >= 64) | (packets == n_packets - 1)
        belief = RepNeighborBelief(line5, n_packets=n_packets, n_reps=1)
        belief.sync(np.asarray([0, 0]), np.asarray([1, 1]),
                    np.asarray([0, 2]), belief.packet_words.pack(has, axis=1))
        counts = belief.coverage_counts(
            np.zeros(n_packets, dtype=np.int64),
            np.ones(n_packets, dtype=np.int64), packets)
        np.testing.assert_array_equal(
            counts, has[0, :, 0].astype(int) + has[0, :, 2])


class TestBatchContract:
    """Every protocol speaks the replication-batched interface."""

    def test_overriding_neither_raises(self, view):
        class Neither(FloodingProtocol):
            name = ""

        with pytest.raises(NotImplementedError, match="must override"):
            Neither().prepare_reps(view.topo, view.schedules_list,
                                   view.workload, [None])
        with pytest.raises(NotImplementedError, match="must override"):
            Neither().propose_reps(0, np.asarray([0]), [np.asarray([1])],
                                   view)

    def test_all_registered_protocols_emit_batches(self):
        # The engine consumes flat (replication, sender, receiver,
        # packet) int arrays, grouped by ascending replication.
        from repro.net.generators import line_topology

        topo = line_topology(4, prr=1.0)
        for name in available_protocols():
            proto = make_protocol(name)
            rngs = [np.random.default_rng(3), np.random.default_rng(5)]
            schedules = [ScheduleTable(4, [0, 0, 0, 0, 0])] * 2
            proto.prepare_reps(topo, schedules, FloodWorkload(2), rngs)
            has = np.zeros((2, 2, 5), dtype=bool)
            has[:, :, 0] = True
            arrival = np.where(has, 0, -1).astype(np.int64)
            v = RepSimView(topo, schedules, FloodWorkload(2), has, arrival)
            awake = [s.awake_at(0) for s in schedules]
            kk, ss, rr, pp = proto.propose_reps(0, np.arange(2), awake, v)
            assert len(kk) == len(ss) == len(rr) == len(pp)
            for arr in (kk, ss, rr, pp):
                assert arr.dtype == np.int64
            assert (np.diff(kk) >= 0).all()
            assert set(ss.tolist()) <= {0}  # only the source holds packets
