"""The observer layer: dispatch rules and user-supplied observers."""

import numpy as np
import pytest

from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.protocols.dbao import Dbao
from repro.protocols.opt import OptOracle, opt_radio_model
from repro.protocols.oppflood import OpportunisticFlooding
from repro.sim.batch import run_flood_batch
from repro.sim.engine import SimConfig, run_flood
from repro.sim.events import EventKind
from repro.sim.observers import (
    EventLogObserver,
    PhaseProfiler,
    SimObserver,
    overriders_of,
)


class _TxOnly(SimObserver):
    def __init__(self):
        self.calls = 0

    def on_tx(self, t, batch, outcome, sleep_misses):
        self.calls += 1


class _Counter(SimObserver):
    """Re-derives the engine's aggregate counters from the hook stream."""

    def __init__(self):
        self.tx_attempts = self.tx_failures = self.collisions = 0
        self.duplicates = self.overhears = 0

    def on_tx(self, t, batch, outcome, sleep_misses):
        self.tx_attempts += len(batch)
        self.tx_failures += len(outcome.failures)
        self.collisions += len(outcome.collisions)

    def on_reception(self, t, rec, is_duplicate):
        if is_duplicate:
            self.duplicates += not rec.overheard
        else:
            self.overhears += rec.overheard


class _Recorder(SimObserver):
    """Overrides every hook and tallies the stream it sees."""

    def __init__(self):
        self.injects = []
        self.slots = 0
        self.executed = []
        self.spans = []
        self.tx_attempts = 0
        self.receptions = 0
        self.completes = []
        self.result = None

    def on_slot(self, t, awake):
        self.slots += 1
        self.executed.append(t)

    def on_idle_span(self, t_start, t_end):
        self.spans.append((t_start, t_end))

    def on_inject(self, t, packet):
        self.injects.append((t, packet))

    def on_tx(self, t, batch, outcome, sleep_misses):
        self.tx_attempts += len(batch)

    def on_reception(self, t, rec, is_duplicate):
        self.receptions += 1

    def on_complete(self, t, packet):
        self.completes.append(packet)

    def on_finish(self, result):
        self.result = result


class TestOverridersOf:
    def test_filters_by_overridden_hook(self):
        base, tx_only = SimObserver(), _TxOnly()
        obs = [base, tx_only]
        assert overriders_of(obs, "on_tx") == [tx_only]
        assert overriders_of(obs, "on_reception") == []

    def test_preserves_registration_order(self):
        a, b = _TxOnly(), _TxOnly()
        assert overriders_of([a, b], "on_tx") == [a, b]

    def test_unknown_hook_rejected(self):
        with pytest.raises(ValueError, match="unknown observer hook"):
            overriders_of([], "on_teardown")


class TestUserObservers:
    def _run(self, topo, observers, track_events=False):
        rng = np.random.default_rng(5)
        schedules = ScheduleTable.random(topo.n_nodes, 4, np.random.default_rng(6))
        return run_flood(
            topo, schedules, FloodWorkload(3), OptOracle(), rng,
            SimConfig(coverage_target=1.0, radio=opt_radio_model(),
                      track_events=track_events),
            observers=observers,
        )

    def test_recorder_matches_metrics(self, line5):
        rec = _Recorder()
        result = self._run(line5, [rec])
        assert result.completed
        assert rec.result is result
        assert rec.tx_attempts == result.metrics.tx_attempts
        # Executed slots plus fast-forwarded spans tile [0, elapsed)
        # exactly: every slot is either executed (one on_slot call) or
        # inside exactly one idle span, and no per-slot hook ever fires
        # inside a span.
        skipped = sum(b - a for a, b in rec.spans)
        assert rec.slots + skipped == result.metrics.elapsed_slots
        executed = set(rec.executed)
        for a, b in rec.spans:
            assert a < b
            assert not executed.intersection(range(a, b))
        assert [p for _, p in rec.injects] == [0, 1, 2]
        assert sorted(rec.completes) == [0, 1, 2]

    def test_extra_event_log_matches_builtin(self, line5):
        mirror = EventLogObserver()
        result = self._run(line5, [mirror], track_events=True)
        assert list(mirror.log) == list(result.events)

    def test_counter_observer_standalone(self, line5):
        # The hooks carry enough to re-derive every engine counter.
        extra = _Counter()
        result = self._run(line5, [extra])
        m = result.metrics
        assert extra.tx_attempts == m.tx_attempts
        assert extra.tx_failures == m.tx_failures
        assert extra.duplicates == m.duplicates

    def test_observers_see_dbao_collision_stream(self, small_rgg):
        # A contention-prone run: user observers receive the same event
        # stream the built-in log records, collisions included.
        mirror = EventLogObserver()
        rng = np.random.default_rng(9)
        schedules = ScheduleTable.random(
            small_rgg.n_nodes, 10, np.random.default_rng(10))
        result = run_flood(
            small_rgg, schedules, FloodWorkload(2), Dbao(), rng,
            SimConfig(max_slots=4000, track_events=True),
            observers=[mirror],
        )
        assert list(mirror.log) == list(result.events)
        assert mirror.log.count(EventKind.TX) == result.metrics.tx_attempts
        assert mirror.log.count(EventKind.COLLISION) \
            == result.metrics.collisions > 0


class _SlotKinds(SimObserver):
    """Executed slots and the ones that carried traffic."""

    def __init__(self):
        self.executed = []
        self.traffic = []

    def on_slot(self, t, awake):
        self.executed.append(t)

    def on_tx(self, t, batch, outcome, sleep_misses):
        self.traffic.append(t)


class TestPhaseProfiler:
    def test_idle_slots_match_hand_count(self, small_rgg):
        # Three OF replications in one batch: every executed slot
        # without an on_tx call proposed nothing, and the profiler's
        # idle count must equal that hand count summed over the batch.
        tallies = [_SlotKinds() for _ in range(3)]
        schedules = [
            ScheduleTable.random(small_rgg.n_nodes, 12,
                                 np.random.default_rng(20 + k))
            for k in range(3)
        ]
        prof = PhaseProfiler(sample_allocs=False)
        results = run_flood_batch(
            small_rgg, schedules, FloodWorkload(2), OpportunisticFlooding(),
            [np.random.default_rng(30 + k) for k in range(3)],
            SimConfig(max_slots=4000), profiler=prof,
            observers_list=[[tally] for tally in tallies],
        )
        assert all(res.completed for res in results)
        executed = sum(len(tally.executed) for tally in tallies)
        idle = sum(len(set(tally.executed) - set(tally.traffic))
                   for tally in tallies)
        assert prof.slots == executed
        assert 0 < prof.idle_slots == idle < executed
        report = prof.report()
        assert (report["slots"], report["idle_slots"]) == (executed, idle)

    def test_prepare_is_its_own_phase(self, small_rgg):
        # The protocol's one-time setup, its phase table build included,
        # is timed once per run as ``prepare``; the per-slot phases
        # never carry it.
        built = []

        class Counted(Dbao):
            def prepare_reps(self, *args):
                super().prepare_reps(*args)
                built.append(len(self._table))

        schedules = [
            ScheduleTable.random(small_rgg.n_nodes, p,
                                 np.random.default_rng(40 + p))
            for p in (5, 7, 12)
        ]
        prof = PhaseProfiler(sample_allocs=False)
        run_flood_batch(
            small_rgg, schedules, FloodWorkload(2), Counted(),
            [np.random.default_rng(k) for k in range(3)],
            SimConfig(max_slots=4000), profiler=prof,
        )
        assert len(built) == 1 and built[0] > 0
        assert prof.phase_calls["prepare"] == 1
        assert prof.phase_seconds["prepare"] > 0.0
        assert prof.phase_calls["propose"] == prof.loop_slots
        assert "prepare" in prof.report()["phases"]
