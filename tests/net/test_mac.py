"""The layered link stack: LinkModel contract and 802.15.4 CSMA-CA.

Covers the MAC registry, the ideal link's bit-identity with the raw
resolvers, the CSMA-CA state machine's observable behaviour on
hand-built topologies, the carrier-sense selector's edge cases, and the
serial <-> batched equivalence of the real MAC through the runner.
"""

import numpy as np
import pytest

from repro.net.generators import random_geometric_topology
from repro.net.mac import (
    MAC_KINDS,
    MAC_PARAMS,
    Csma802154Link,
    IdealCsmaLink,
    make_link_model,
)
from repro.net.radio import (
    RadioModel,
    SlotOutcome,
    Transmission,
    TxBatch,
    csma_select,
    csma_select_reps,
    resolve_slot,
    resolve_slot_reps,
)
from repro.net.topology import Topology
from repro.scenario import Scenario
from repro.sim.runner import run_replication, run_replication_chunk


def _no_capture():
    return RadioModel(capture_guard=1.0, capture_margin_db=None,
                      capture_ratio=None)


class TestRegistry:
    def test_kinds_and_params_agree(self):
        assert set(MAC_KINDS) == set(MAC_PARAMS) == {"ideal", "csma_802154"}

    def test_make_by_kind(self):
        assert isinstance(make_link_model("ideal"), IdealCsmaLink)
        link = make_link_model("csma_802154", mac_min_be=2)
        assert isinstance(link, Csma802154Link)
        assert link.mac_min_be == 2
        assert link.params["mac_min_be"] == 2

    def test_unknown_kind_lists_valid(self):
        with pytest.raises(ValueError, match="csma_802154"):
            make_link_model("tdma")

    @pytest.mark.parametrize("kwargs", [
        {"mac_min_be": 6, "mac_max_be": 5},   # min > max
        {"mac_max_be": 9},                    # above the 802.15.4 bound
        {"mac_min_be": -1},
        {"max_csma_backoffs": -1},
        {"max_frame_retries": -2},
        {"ack_wait_rounds": -1},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Csma802154Link(**kwargs)

    def test_repr_echoes_params(self):
        assert "max_frame_retries=1" in repr(
            Csma802154Link(max_frame_retries=1))


class TestIdealLinkBitIdentity:
    """The extracted layer must be the old code path, draw for draw."""

    def test_serial_matches_raw_resolver(self, lossy_line5):
        batch = [Transmission(0, 1, 0), Transmission(2, 3, 0)]
        raw = resolve_slot(batch, lossy_line5, awake=[1, 3],
                           rng=np.random.default_rng(99))
        layered = IdealCsmaLink().resolve(
            TxBatch.from_transmissions(batch), lossy_line5, [1, 3],
            np.random.default_rng(99), RadioModel(),
        )
        assert layered.receptions == raw.receptions
        assert layered.failures == raw.failures
        assert layered.collisions == raw.collisions

    def test_batched_matches_raw_resolver(self, lossy_line5):
        kk = np.array([0, 0, 1], dtype=np.int64)
        ss = np.array([0, 2, 0], dtype=np.int64)
        rr = np.array([1, 3, 1], dtype=np.int64)
        pp = np.zeros(3, dtype=np.int64)
        awake = {0: np.array([1, 3]), 1: np.array([1])}
        raw = resolve_slot_reps(
            kk, ss, rr, pp, lossy_line5, awake,
            [np.random.default_rng(5), np.random.default_rng(6)],
        )
        layered = IdealCsmaLink().resolve_reps(
            kk, ss, rr, pp, lossy_line5, awake,
            [np.random.default_rng(5), np.random.default_rng(6)],
            RadioModel(),
        )
        for f in ("rec_rep", "rec_receiver", "rec_sender", "rec_packet",
                  "rec_overheard", "fail_rep", "fail_sender"):
            assert np.array_equal(getattr(layered, f), getattr(raw, f))
        assert layered.collision_counts == raw.collision_counts


class TestCsmaSerialBehaviour:
    def test_perfect_link_delivers_first_exchange(self, line5):
        out = Csma802154Link().resolve(
            TxBatch.from_transmissions([Transmission(0, 1, 0)]), line5,
            [1], np.random.default_rng(0), RadioModel(),
        )
        assert [r.receiver for r in out.receptions] == [1]
        assert out.failures == [] and out.collisions == []

    def test_deferred_sender_recovers_within_the_slot(self):
        # Senders 0 and 1 hear each other; their receivers (2 and 3) are
        # private. CCA serializes them into different micro-rounds, and
        # both frames deliver inside one wake slot.
        prr = np.zeros((4, 4))
        prr[0, 1] = prr[1, 0] = 0.9   # mutual audibility
        prr[0, 2] = prr[1, 3] = 1.0
        topo = Topology(prr)
        batch = TxBatch.from_transmissions(
            [Transmission(0, 2, 0), Transmission(1, 3, 0)])
        out = Csma802154Link().resolve(
            batch, topo, [2, 3], np.random.default_rng(3), RadioModel(),
        )
        assert sorted(r.receiver for r in out.receptions) == [2, 3]
        assert out.failures == []

    def test_sleeping_receiver_exhausts_retries(self, line5):
        out = Csma802154Link(max_frame_retries=1).resolve(
            TxBatch.from_transmissions([Transmission(0, 1, 0)]), line5,
            [], np.random.default_rng(0), RadioModel(),
        )
        assert out.receptions == []
        # The frame fails exactly once at the slot level, however many
        # physical attempts the MAC burned.
        assert out.failures == [Transmission(0, 1, 0)]
        assert out.collisions == []

    @pytest.mark.parametrize("seed", range(8))
    def test_hidden_terminals_keep_frame_accounting(self, seed):
        # 0 and 1 cannot hear each other but share receiver 2: classic
        # hidden pair. Whatever the backoff draws do, the slot outcome
        # stays frame-consistent: at most one decode at 2, every frame
        # delivered or failed exactly once, collisions a subset of
        # failures (each failed frame listed at most once).
        prr = np.zeros((3, 3))
        prr[0, 2] = prr[1, 2] = 1.0
        topo = Topology(prr)
        batch = TxBatch.from_transmissions(
            [Transmission(0, 2, 0), Transmission(1, 2, 1)])
        out = Csma802154Link().resolve(
            batch, topo, [2], np.random.default_rng(seed), _no_capture(),
        )
        addressed = [r for r in out.receptions if not r.overheard]
        assert len(addressed) <= 1
        assert len(addressed) + len(out.failures) == 2
        fail_set = {(t.sender, t.receiver) for t in out.failures}
        coll_list = [(t.sender, t.receiver) for t in out.collisions]
        assert len(coll_list) == len(set(coll_list))
        assert set(coll_list) <= fail_set

    def test_absorbed_collision_does_not_surface(self):
        # A narrow backoff window (BE=1 -> backoff in {0, 1}) makes the
        # hidden pair collide often but desynchronize on retries, so
        # across seeds plenty of frames collide first and deliver later.
        # A frame that collided but was ultimately delivered must NOT be
        # reported as a collision — the flood-level invariant is
        # collisions are a subset of failures.
        prr = np.zeros((3, 3))
        prr[0, 2] = prr[1, 2] = 1.0
        topo = Topology(prr)
        batch = TxBatch.from_transmissions(
            [Transmission(0, 2, 0), Transmission(1, 2, 1)])
        delivered_once = False
        for seed in range(16):
            out = Csma802154Link(mac_min_be=1, mac_max_be=2).resolve(
                batch, topo, [2], np.random.default_rng(seed),
                _no_capture(),
            )
            fail_set = {(t.sender, t.receiver) for t in out.failures}
            assert {(t.sender, t.receiver)
                    for t in out.collisions} <= fail_set
            delivered_once |= bool(out.receptions)
        assert delivered_once  # retries did rescue some seeds


class TestCsmaSelectEdgeCases:
    def test_empty_contender_set(self, line5):
        assert csma_select([], line5) == ([], {})

    def test_single_contender_always_wins(self, line5):
        winners, deferrals = csma_select([3], line5)
        assert winners == [3]
        assert deferrals == {3: []}  # nobody deferred to it

    def test_rank_tie_breaks_on_input_order(self, line5):
        # Adjacent (mutually audible) senders with no other ordering
        # information: the earlier-ranked input wins, whichever id it is.
        assert csma_select([1, 2], line5)[0] == [1]
        assert csma_select([2, 1], line5)[0] == [2]

    def test_all_zero_prr_rows_transmit_in_parallel(self):
        # Nobody can hear anybody: carrier sense never defers.
        topo = Topology(np.zeros((4, 4)))
        winners, deferrals = csma_select([2, 0, 3], topo)
        assert winners == [2, 0, 3]
        assert all(not d for d in deferrals.values())

    def test_reps_empty(self, line5):
        out = csma_select_reps(
            np.empty(0, np.int64), np.empty(0, np.int64), line5)
        assert out.size == 0

    def test_reps_matches_serial_per_group(self, small_rgg):
        rng = np.random.default_rng(17)
        groups, senders = [], []
        per_group = []
        for g in range(6):
            k = int(rng.integers(1, 9))
            cand = rng.choice(small_rgg.n_nodes, size=k, replace=False)
            groups.extend([g] * k)
            senders.extend(cand.tolist())
            per_group.append(cand.tolist())
        mask = csma_select_reps(
            np.array(groups, dtype=np.int64),
            np.array(senders, dtype=np.int64), small_rgg)
        flat = []
        for cand in per_group:
            winners, _ = csma_select(cand, small_rgg)
            wset = set(winners)
            flat.extend(s in wset for s in cand)
        assert mask.tolist() == flat

    def test_reps_tolerates_group_id_gaps(self, line5):
        # Groups 0 and 2 with no group 1 (a replication without ready
        # frames this round): each group is still independent.
        mask = csma_select_reps(
            np.array([0, 0, 2, 2], dtype=np.int64),
            np.array([1, 2, 2, 1], dtype=np.int64), line5)
        assert mask.tolist() == [True, False, True, False]


class TestRunnerEquivalence:
    """The real MAC through both engine paths, bit for bit."""

    @pytest.fixture(scope="class")
    def topo(self):
        return random_geometric_topology(
            30, area_m=180.0, rng=np.random.default_rng(7))

    @pytest.mark.parametrize("protocol", ["dbao", "naive"])
    def test_serial_matches_batched(self, topo, protocol):
        scenario = Scenario(
            protocol=protocol, duty_ratio=0.1, n_packets=2, seed=2011,
            n_replications=2, mac="csma_802154",
            sim={"max_slots": 4000},
        )
        serial = [run_replication(topo, scenario, rep) for rep in range(2)]
        batched = run_replication_chunk(topo, scenario, 0, 2)
        for a, b in zip(serial, batched):
            for f in ("tx_attempts", "tx_failures", "collisions",
                      "duplicates", "overhears", "elapsed_slots",
                      "sleep_misses"):
                assert getattr(a.metrics, f) == getattr(b.metrics, f)
            assert np.array_equal(a.has, b.has)
            assert np.array_equal(a.arrival, b.arrival)
            assert a.completed == b.completed
            # The FloodMetrics constructor enforces the subset invariant;
            # assert it visibly anyway — it is the MAC's contract.
            assert a.metrics.collisions <= a.metrics.tx_failures

    def test_mac_kwargs_reach_the_engine(self, topo):
        base = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                        seed=2011, mac="csma_802154",
                        sim={"max_slots": 4000})
        tweaked = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                           seed=2011, mac="csma_802154",
                           mac_kwargs={"max_frame_retries": 0,
                                       "max_csma_backoffs": 0},
                           sim={"max_slots": 4000})
        a = run_replication(topo, base, 0)
        b = run_replication(topo, tweaked, 0)
        # No-retry CSMA gives up frames the default keeps nursing; the
        # trajectories must differ (same seed, same substrate).
        assert (a.metrics.tx_failures != b.metrics.tx_failures
                or not np.array_equal(a.arrival, b.arrival))


def _stack_case(seed):
    """One generated stacked 802.15.4 slot.

    A random geometric topology, R = 1-6 replications (some frame-less
    decoys), each with its own wake set and duplicate-free sender
    batch. Senders are often drawn from earlier senders' audible sets
    (CCA defers), sometimes share a receiver with a sender they cannot
    hear (hidden pairs), and address sleeping receivers or other
    senders now and then. The MAC constants range down to
    ``mac_min_be=1`` and zero retries/backoffs; capture is on or off.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 21))
    topo = random_geometric_topology(
        n, area_m=float(rng.uniform(40.0, 160.0)), rng=rng)
    min_be = int(rng.choice([1, 1, 2, 3]))
    link = Csma802154Link(
        mac_min_be=min_be,
        mac_max_be=max(min_be, int(rng.choice([1, 2, 5]))),
        max_csma_backoffs=int(rng.choice([0, 1, 4])),
        max_frame_retries=int(rng.choice([0, 1, 3])),
        ack_wait_rounds=int(rng.choice([0, 1, 3])),
    )
    radio = RadioModel() if rng.random() < 0.5 else _no_capture()
    R = int(rng.integers(1, 7))
    reps = []
    for _ in range(R):
        awake = np.flatnonzero(rng.random(n) < rng.uniform(0.4, 1.0))
        if rng.random() < 0.25:
            reps.append((awake, []))  # decoy: no frames this slot
            continue
        senders, receivers = [], []
        for _ in range(int(rng.integers(1, min(n, 7) + 1))):
            free = np.setdiff1d(np.arange(n), senders)
            heard = free[topo.audible[senders].any(axis=0)[free]] \
                if senders else free[:0]
            hidden = [
                (s, r) for r in set(receivers) for s in free
                if topo.adjacency[s, r] and s != r
                and not topo.audible[senders, s].any()
            ]
            u = rng.random()
            if hidden and u < 0.3:
                s, r = hidden[int(rng.integers(len(hidden)))]
            else:
                pool = heard if heard.size and u < 0.7 else free
                s = int(pool[int(rng.integers(pool.size))])
                outs = topo.out_neighbors(s)
                if outs.size and rng.random() < 0.85:
                    r = int(outs[int(rng.integers(outs.size))])
                else:
                    r = int(rng.choice(np.setdiff1d(np.arange(n), [s])))
            senders.append(int(s))
            receivers.append(int(r))
        frames = [(s, r, int(rng.integers(0, 4)))
                  for s, r in zip(senders, receivers)]
        reps.append((awake, frames))
    seeds = rng.integers(0, 2**32, size=R).tolist()
    use_stack = bool(rng.random() < 0.5)
    return topo, link, radio, reps, seeds, use_stack


def _stacked_rows(reps):
    kk, ss, rr, pp = [], [], [], []
    for k, (_, frames) in enumerate(reps):
        for s, r, p in frames:
            kk.append(k)
            ss.append(s)
            rr.append(r)
            pp.append(p)
    return tuple(np.asarray(a, dtype=np.int64) for a in (kk, ss, rr, pp))


@pytest.fixture
def phy_calls(monkeypatch):
    """Counts the raw-resolver calls a CSMA slot makes (its steps)."""
    import repro.net.mac as mac_mod

    calls = []
    real = mac_mod.resolve_slot_reps

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mac_mod, "resolve_slot_reps", counting)
    return calls


def _resolve_stack(topo, link, radio, reps, seeds, use_stack):
    kk, ss, rr, pp = _stacked_rows(reps)
    awake = [aw for aw, _ in reps]
    stack = None
    if use_stack:
        stack = np.zeros((len(reps), topo.n_nodes), dtype=bool)
        for k, aw in enumerate(awake):
            stack[k, aw] = True
    rngs = [np.random.default_rng(s) for s in seeds]
    out = link.resolve_reps(kk, ss, rr, pp, topo, awake, rngs, radio,
                            awake_stack=stack, collect_collision_rows=True)
    return out, rngs, kk, ss


class TestStackedCsmaEqualsSerial:
    """Generated differential test of the batched 802.15.4 MAC.

    ``resolve_reps`` over a stack must equal every replication resolved
    alone by the serial ``Csma802154Link.resolve``: receptions (in
    order), failures, collisions and each generator's end state. Each
    replication runs on its own micro-round clock, so the stacked slot
    takes as many raw-resolver steps as the replication that needs the
    most rounds alone.
    """

    @pytest.mark.parametrize("block", range(12))
    def test_stack_equals_each_replication_alone(self, block, phy_calls):
        for seed in range(block * 20, block * 20 + 20):
            topo, link, radio, reps, seeds, use_stack = _stack_case(seed)
            del phy_calls[:]
            out, rngs, kk, ss = _resolve_stack(
                topo, link, radio, reps, seeds, use_stack)
            stacked_steps = len(phy_calls)
            solo_steps = [0]
            for k, (awake, frames) in enumerate(reps):
                rng = np.random.default_rng(seeds[k])
                if frames:
                    s, r, p = (np.asarray(c, dtype=np.int64)
                               for c in zip(*frames))
                    ref = link.resolve(TxBatch(s, r, p), topo, awake, rng,
                                       radio, assume_unique_senders=True)
                    del phy_calls[:]
                    link.resolve_reps(
                        *_stacked_rows([(awake, frames)]), topo, [awake],
                        [np.random.default_rng(seeds[k])], radio)
                    solo_steps.append(len(phy_calls))
                else:
                    ref = SlotOutcome()
                where = f"seed {seed}, replication {k}"
                got = out.rec_rep == k
                assert list(zip(
                    out.rec_receiver[got].tolist(),
                    out.rec_sender[got].tolist(),
                    out.rec_packet[got].tolist(),
                    out.rec_overheard[got].tolist(),
                )) == [(x.receiver, x.sender, x.packet, x.overheard)
                       for x in ref.receptions], where
                assert out.fail_sender[out.fail_rep == k].tolist() \
                    == [tx.sender for tx in ref.failures], where
                assert out.collision_counts.get(k, 0) \
                    == len(ref.collisions), where
                coll = out.coll_rows[kk[out.coll_rows] == k]
                assert ss[coll].tolist() \
                    == [tx.sender for tx in ref.collisions], where
                assert rngs[k].bit_generator.state \
                    == rng.bit_generator.state, where
            assert stacked_steps == max(solo_steps), f"seed {seed}"

    def test_generated_cases_reach_every_mac_path(self, monkeypatch):
        # The differential test is only as strong as its cases: across
        # them CCA defers, frames go on air again after a missed ACK,
        # collide and fail, receivers sleep, decoys sit in stacks, and
        # capture runs both ways.
        import repro.net.mac as mac_mod

        deferred, on_air = [], []
        real_select, real_resolve = mac_mod.csma_select, mac_mod.resolve_slot

        def spy_select(senders, topo):
            winners, deferrals = real_select(senders, topo)
            deferred.append(len(senders) - len(winners))
            return winners, deferrals

        def spy_resolve(batch, *args, **kwargs):
            on_air.extend(batch.senders.tolist())
            return real_resolve(batch, *args, **kwargs)

        monkeypatch.setattr(mac_mod, "csma_select", spy_select)
        monkeypatch.setattr(mac_mod, "resolve_slot", spy_resolve)
        seen = dict(deferrals=0, retransmissions=0, collisions=0,
                    failures=0, decoys=0, sleeping=0)
        capture, widths = set(), set()
        for seed in range(240):
            topo, link, radio, reps, seeds, _ = _stack_case(seed)
            capture.add(radio.capture_margin_db is not None)
            widths.add(len(reps))
            for k, (awake, frames) in enumerate(reps):
                if not frames:
                    seen["decoys"] += 1
                    continue
                seen["sleeping"] += sum(r not in awake for _, r, _ in frames)
                s, r, p = (np.asarray(c, dtype=np.int64)
                           for c in zip(*frames))
                del deferred[:], on_air[:]
                ref = link.resolve(
                    TxBatch(s, r, p), topo, awake,
                    np.random.default_rng(seeds[k]), radio,
                    assume_unique_senders=True)
                seen["deferrals"] += sum(deferred)
                seen["retransmissions"] += len(on_air) - len(set(on_air))
                seen["collisions"] += len(ref.collisions)
                seen["failures"] += len(ref.failures)
        assert capture == {True, False}
        assert widths == set(range(1, 7))
        for key, count in seen.items():
            assert count >= 20, (key, count)
