"""Tests for Flash flooding (capture-effect exploitation)."""

import numpy as np
import pytest

from repro.net.packet import FloodWorkload
from repro.net.radio import RadioModel
from repro.net.schedule import ScheduleTable
from repro.protocols.flash import FlashFlooding
from repro.sim.engine import SimConfig, run_flood


class TestFlash:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlashFlooding(max_concurrent=0)

    def test_completes_chain(self, line5):
        rng = np.random.default_rng(0)
        schedules = ScheduleTable.random(5, 5, rng)
        result = run_flood(
            line5, schedules, FloodWorkload(2), FlashFlooding(),
            np.random.default_rng(1), SimConfig(coverage_target=1.0),
        )
        assert result.completed

    def test_completes_lossy_network(self, small_rgg):
        rng = np.random.default_rng(3)
        schedules = ScheduleTable.random(small_rgg.n_nodes, 10, rng)
        result = run_flood(
            small_rgg, schedules, FloodWorkload(3), FlashFlooding(),
            np.random.default_rng(4), SimConfig(),
        )
        assert result.completed

    def test_concurrency_cap_respected(self, small_rgg):
        rng = np.random.default_rng(3)
        schedules = ScheduleTable.random(small_rgg.n_nodes, 10, rng)
        result = run_flood(
            small_rgg, schedules, FloodWorkload(1), FlashFlooding(max_concurrent=2),
            np.random.default_rng(4),
            SimConfig(track_events=True),
        )
        from collections import Counter

        per_slot_receiver = Counter(
            (e.t, e.receiver) for e in result.events if e.kind.value == "tx"
        )
        assert max(per_slot_receiver.values()) <= 2

    def test_capture_is_what_makes_it_work(self, small_rgg):
        # With capture disabled (all overlaps destructive), Flash's
        # concurrent transmissions collide far more often.
        rng = np.random.default_rng(5)
        schedules = ScheduleTable.random(small_rgg.n_nodes, 10, rng)

        def run_with(radio):
            return run_flood(
                small_rgg, schedules, FloodWorkload(2), FlashFlooding(),
                np.random.default_rng(6),
                SimConfig(radio=radio, max_slots=200_000),
            )

        with_capture = run_with(RadioModel())
        without = run_with(
            RadioModel(capture_guard=1.0, capture_margin_db=None,
                       capture_ratio=None)
        )
        assert without.metrics.collisions > with_capture.metrics.collisions

    def test_registered(self):
        from repro.protocols import make_protocol

        proto = make_protocol("flash", max_concurrent=3)
        assert proto.max_concurrent == 3
