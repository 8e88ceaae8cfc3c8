"""Tests for the clock-skew sensitivity machinery."""

import numpy as np
import pytest

from repro.experiments import run_experiment_by_id
from repro.net.generators import line_topology
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.net.sync import JitteredSchedules
from repro.protocols import make_protocol
from repro.sim.engine import SimConfig, run_flood


@pytest.fixture
def advertised(rng):
    return ScheduleTable.random(5, 10, rng)


class TestJitteredSchedules:
    def test_zero_jitter_matches_advertised(self, advertised):
        truth = JitteredSchedules(advertised, 0.0, seed=1)
        for t in range(30):
            assert np.array_equal(truth.awake_at(t), advertised.awake_at(t))

    @pytest.mark.parametrize("wake_slots", [1, 2])
    def test_zero_jitter_keeps_every_wake_slot(self, wake_slots, rng):
        # Every active slot of a multi-slot table jitters, so at jitter 0
        # the true wake sets equal the advertised ones at every phase.
        advertised = ScheduleTable.random(5, 20, rng, wake_slots)
        truth = JitteredSchedules(advertised, 0.0, seed=1)
        for t in range(40):
            assert np.array_equal(truth.awake_at(t), advertised.awake_at(t))

    def test_deterministic_in_seed(self, advertised):
        a = JitteredSchedules(advertised, 0.5, seed=5)
        b = JitteredSchedules(advertised, 0.5, seed=5)
        for t in range(40):
            assert np.array_equal(a.awake_at(t), b.awake_at(t))

    def test_stateless_query_order(self, advertised):
        truth = JitteredSchedules(advertised, 0.5, seed=5)
        late = truth.awake_at(35).copy()
        _ = truth.awake_at(2)
        assert np.array_equal(truth.awake_at(35), late)

    def test_every_node_wakes_once_per_period(self, advertised):
        truth = JitteredSchedules(advertised, 0.6, seed=2)
        period = advertised.period
        for k in range(5):
            woke = np.concatenate(
                [truth.awake_at(k * period + p) for p in range(period)]
            )
            assert sorted(woke.tolist()) == list(range(5))

    def test_jitter_fraction_matches_probability(self, advertised):
        prob = 0.4
        truth = JitteredSchedules(advertised, prob, seed=3)
        moved = total = 0
        for k in range(400):
            offs = truth._offsets_for_period(k)
            moved += int((offs != advertised.offsets_matrix).sum())
            total += len(advertised)
        # Shifts of ±1 can coincide with the advertised slot only via
        # wraparound in tiny periods; period=10 keeps this clean.
        assert moved / total == pytest.approx(prob, abs=0.05)

    def test_probability_validation(self, advertised):
        with pytest.raises(ValueError):
            JitteredSchedules(advertised, -0.1, seed=1)
        with pytest.raises(ValueError):
            JitteredSchedules(advertised, 1.2, seed=1)
        truth = JitteredSchedules(advertised, 0.5, seed=1)
        with pytest.raises(ValueError):
            truth.awake_at(-1)

    def test_is_active_rejects_negative_slots(self):
        # Slot -3 would otherwise read period -1's jitter draws.
        truth = JitteredSchedules(ScheduleTable(5, [0, 1, 2]), 0.3, 7)
        with pytest.raises(ValueError, match="non-negative"):
            truth.is_active(0, -3)
        assert truth.is_active(0, 0) == (0 in truth.awake_at(0).tolist())


class TestEngineSkewMode:
    def test_sleep_misses_counted(self):
        topo = line_topology(4, prr=1.0)
        rng = np.random.default_rng(0)
        advertised = ScheduleTable.random(5, 5, rng)
        truth = JitteredSchedules(advertised, 0.5, seed=9)
        result = run_flood(
            topo, advertised, FloodWorkload(2), make_protocol("dbao"),
            np.random.default_rng(1),
            SimConfig(coverage_target=1.0, max_slots=50_000),
            true_schedules=truth,
        )
        assert result.metrics.sleep_misses > 0
        assert result.completed  # jitter slows, must not deadlock

    def test_no_skew_means_no_misses(self):
        topo = line_topology(4, prr=1.0)
        rng = np.random.default_rng(0)
        advertised = ScheduleTable.random(5, 5, rng)
        result = run_flood(
            topo, advertised, FloodWorkload(2), make_protocol("dbao"),
            np.random.default_rng(1),
            SimConfig(coverage_target=1.0),
        )
        assert result.metrics.sleep_misses == 0

    def test_size_mismatch_rejected(self):
        topo = line_topology(4, prr=1.0)
        rng = np.random.default_rng(0)
        advertised = ScheduleTable.random(5, 5, rng)
        wrong = ScheduleTable.random(7, 5, rng)
        with pytest.raises(ValueError, match="true_schedules"):
            run_flood(
                topo, advertised, FloodWorkload(1), make_protocol("dbao"),
                rng, SimConfig(), true_schedules=wrong,
            )


class TestSkewExperiment:
    def test_delay_degrades_with_jitter(self):
        r = run_experiment_by_id("skew", scale="smoke")
        delays = r.get_series("avg delay").y
        misses = r.get_series("sleep misses").y
        assert delays[-1] > delays[0]
        assert misses[0] == 0 and misses[-1] > 0
