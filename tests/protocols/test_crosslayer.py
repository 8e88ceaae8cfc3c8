"""Tests for the cross-layer future-work sketch."""

import numpy as np
import pytest

from repro.core.tradeoff import GainWeights
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.protocols.crosslayer import CrossLayerFlooding, recommended_configuration
from repro.scenario import Scenario
from repro.sim.engine import SimConfig, run_flood
from repro.sim.runner import run_experiment


class TestCrossLayerFlooding:
    def test_completes(self, small_rgg):
        rng = np.random.default_rng(0)
        schedules = ScheduleTable.random(small_rgg.n_nodes, 10, rng)
        result = run_flood(
            small_rgg, schedules, FloodWorkload(3), CrossLayerFlooding(),
            np.random.default_rng(1), SimConfig(),
        )
        assert result.completed

    def test_comparable_to_dbao(self, small_rgg):
        # The sketch combines DBAO's machinery with free opportunism; it
        # should land in DBAO's delay neighborhood (within 2x).
        cl = run_experiment(small_rgg, Scenario(
            protocol="crosslayer", duty_ratio=0.1, n_packets=4, seed=6))
        db = run_experiment(small_rgg, Scenario(
            protocol="dbao", duty_ratio=0.1, n_packets=4, seed=6))
        assert cl.mean_delay() <= 2.0 * db.mean_delay()


class TestRecommendedConfiguration:
    def test_returns_interior_duty(self, small_rgg):
        best = recommended_configuration(small_rgg)
        assert 0.01 <= best.duty_ratio <= 0.5
        assert best.period == round(1 / best.duty_ratio)

    def test_weights_respected(self, small_rgg):
        lifetime_heavy = recommended_configuration(
            small_rgg, weights=GainWeights(lifetime_weight=3.0)
        )
        delay_heavy = recommended_configuration(
            small_rgg, weights=GainWeights(delay_weight=3.0)
        )
        assert lifetime_heavy.duty_ratio <= delay_heavy.duty_ratio
