"""Quiescence fast-forward: bit-identical trajectories, on or off.

The compact-time skip (``SimConfig.fast_forward``) is a pure performance
switch: the engine may only jump over slots the protocol has *proved*
quiescent, so every observable of a flood — possession matrix, arrival
slots, per-node energy, every counter — must be byte-for-byte identical
with the skip disabled. These tests pin that equivalence across all
seven registered protocols, with bursty link dynamics and clock skew
layered on, and check that the skip actually engages (a vacuously green
equivalence test would prove nothing).
"""

import numpy as np
import pytest

from repro.net.dynamics import GilbertElliott
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.net.sync import JitteredSchedules
from repro.protocols.base import available_protocols, make_protocol
from repro.protocols.opt import opt_radio_model
from repro.scenario import Scenario
from repro.sim.engine import SimConfig, run_flood
from repro.sim.observers import PhaseProfiler, SimObserver
from repro.sim.runner import run_replication_stack
import repro.protocols  # noqa: F401  (populates the registry)

ALL_PROTOCOLS = available_protocols()


class _SpanTally(SimObserver):
    def __init__(self):
        self.executed = 0
        self.skipped = 0

    def on_slot(self, t, awake):
        self.executed += 1

    def on_idle_span(self, t_start, t_end):
        self.skipped += t_end - t_start


class _WhereExecuted(SimObserver):
    def __init__(self):
        self.slots = []
        self.traffic = set()

    def on_slot(self, t, awake):
        self.slots.append(t)

    def on_tx(self, t, batch, outcome, misses):
        self.traffic.add(t)


def _flood(topo, protocol_name, *, fast_forward, period=24, n_packets=2,
           dynamics=False, skew=False, observers=()):
    schedules = ScheduleTable.random(
        topo.n_nodes, period, np.random.default_rng(3)
    )
    radio = opt_radio_model() if protocol_name == "opt" else None
    config = SimConfig(
        max_slots=40_000, fast_forward=fast_forward,
        **({"radio": radio} if radio is not None else {}),
    )
    dyn = None
    if dynamics:
        dyn = GilbertElliott(
            topo, p_good_to_bad=0.05, p_bad_to_good=0.2, bad_factor=0.3,
            rng=np.random.default_rng(17),
        )
    true_schedules = (
        JitteredSchedules(schedules, 0.3, 99) if skew else None
    )
    return run_flood(
        topo, schedules, FloodWorkload(n_packets),
        make_protocol(protocol_name), np.random.default_rng(7),
        config, dynamics=dyn, true_schedules=true_schedules,
        observers=list(observers),
    )


def _assert_identical(a, b):
    np.testing.assert_array_equal(a.has, b.has)
    np.testing.assert_array_equal(a.arrival, b.arrival)
    np.testing.assert_array_equal(a.ledger.tx_attempts, b.ledger.tx_attempts)
    np.testing.assert_array_equal(a.ledger.tx_failures, b.ledger.tx_failures)
    np.testing.assert_array_equal(a.ledger.rx_successes, b.ledger.rx_successes)
    ma, mb = a.metrics, b.metrics
    assert ma.elapsed_slots == mb.elapsed_slots
    assert ma.tx_attempts == mb.tx_attempts
    assert ma.tx_failures == mb.tx_failures
    assert ma.collisions == mb.collisions
    assert ma.duplicates == mb.duplicates
    assert ma.overhears == mb.overhears
    assert ma.sleep_misses == mb.sleep_misses
    np.testing.assert_array_equal(ma.delays.completed, mb.delays.completed)
    np.testing.assert_array_equal(ma.delays.first_tx, mb.delays.first_tx)
    assert a.completed == b.completed


class TestBitIdenticalTrajectories:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_plain(self, small_rgg, name):
        tally = _SpanTally()
        on = _flood(small_rgg, name, fast_forward=True, observers=[tally])
        off = _flood(small_rgg, name, fast_forward=False)
        _assert_identical(on, off)
        assert tally.executed + tally.skipped == on.metrics.elapsed_slots

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_with_dynamics_and_skew(self, small_rgg, name):
        # Bursty links exercise GilbertElliott.advance; jittered true
        # schedules exercise the skip when believed and actual wake
        # times disagree (the frontier is over *believed* schedules).
        on = _flood(small_rgg, name, fast_forward=True,
                    dynamics=True, skew=True)
        off = _flood(small_rgg, name, fast_forward=False,
                     dynamics=True, skew=True)
        _assert_identical(on, off)

    def test_skip_engages_in_sparse_regime(self, small_rgg):
        # At 1% duty with one packet, most slots are provably quiescent;
        # the equivalence above would be vacuous if none were skipped.
        # The engine's one skip rule — query after every idle slot, never
        # after a traffic slot — executes each traffic slot's successor;
        # DBAO's one-packet frontier is exact, so every other executed
        # idle slot is the flood's first and the rest are skipped.
        tally = _SpanTally()
        where = _WhereExecuted()
        on = _flood(small_rgg, "dbao", fast_forward=True, period=100,
                    n_packets=1, observers=[tally, where])
        assert on.completed
        idle = [t for t in where.slots if t not in where.traffic]
        assert all(t == 0 or t - 1 in where.traffic for t in idle)
        assert tally.skipped > len(where.traffic)
        off_tally = _SpanTally()
        off = _flood(small_rgg, "dbao", fast_forward=False, period=100,
                     n_packets=1, observers=[off_tally])
        _assert_identical(on, off)
        assert off_tally.skipped == 0
        assert off_tally.executed == off.metrics.elapsed_slots

    def test_of_one_packet_frontier_is_exact(self, small_rgg):
        # OF's twin of the test above. Its frontier gates opportunistic
        # links by the lateness bound at the receiver's earliest wake,
        # which with one packet is the exact gate, so OF too executes
        # no idle slot beyond the flood's first and each traffic slot's
        # successor.
        tally = _SpanTally()
        where = _WhereExecuted()
        on = _flood(small_rgg, "of", fast_forward=True, period=100,
                    n_packets=1, observers=[tally, where])
        assert on.completed
        idle = [t for t in where.slots if t not in where.traffic]
        assert all(t == 0 or t - 1 in where.traffic for t in idle)
        assert tally.skipped > len(where.traffic)
        off = _flood(small_rgg, "of", fast_forward=False, period=100,
                     n_packets=1)
        _assert_identical(on, off)


def _assert_every_field(a, b, path="result"):
    """Two FloodResults equal on every field, metrics, delays and the
    energy ledger included."""
    if hasattr(a, "__dict__"):
        assert vars(a).keys() == vars(b).keys(), path
        for key in vars(a):
            _assert_every_field(vars(a)[key], vars(b)[key], f"{path}.{key}")
    else:
        np.testing.assert_array_equal(a, b, err_msg=path)


class TestOfStackFrontier:
    """OF's gated frontier where it branches: a stack mixing wake
    periods (gate statistics indexed per replication), one or two wake
    slots (earliest wake over every active slot), and packed (M = 4) or
    boolean (M = 70) beliefs."""

    @pytest.mark.parametrize("n_packets", [4, 70])
    @pytest.mark.parametrize("wake_slots", [1, 2])
    def test_mixed_duty_stack_on_equals_off(self, small_rgg, wake_slots,
                                            n_packets):
        runs = {}
        for fast_forward in (True, False):
            cells = [
                (Scenario(protocol="of", duty_ratio=duty,
                          n_packets=n_packets, wake_slots=wake_slots,
                          seed=2011, n_replications=2,
                          sim={"fast_forward": fast_forward,
                               "max_slots": 1500}), 0, 2)
                for duty in (0.02, 0.05, 0.1)
            ]
            prof = PhaseProfiler(sample_allocs=False)
            stacked = run_replication_stack(small_rgg, cells, profiler=prof)
            runs[fast_forward] = ([r for cell in stacked for r in cell],
                                  prof.slots)
        (on, on_slots), (off, off_slots) = runs[True], runs[False]
        assert len(on) == len(off) == 6
        for a, b in zip(on, off):
            _assert_every_field(a, b)
        elapsed = sum(r.metrics.elapsed_slots for r in on)
        assert off_slots == elapsed
        assert on_slots < elapsed


class TestNextActionSlotContract:
    def test_default_is_conservative(self, line5):
        from repro.protocols.base import FloodingProtocol

        class Minimal(FloodingProtocol):
            name = "minimal-test"

        bounds = Minimal().next_action_slots(10, np.arange(2), None)
        assert bounds.tolist() == [11, 11]

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_bound_is_sound_mid_flood(self, small_rgg, name):
        # Replay a flood slot by slot; whenever the executed slot was
        # idle, the protocol's claimed next action slot must be > t (it
        # may exceed t + 1 only by proving quiescence, which the
        # bit-identity tests above check end to end).
        claims = []

        class Probe(SimObserver):
            def on_idle_span(self, t_start, t_end):
                claims.append((t_start, t_end))

        result = _flood(small_rgg, name, fast_forward=True, period=40,
                        n_packets=1, observers=[Probe()])
        for t_start, t_end in claims:
            assert t_start < t_end <= result.metrics.elapsed_slots
