"""Tests for the naive p-persistent flooding baseline."""

import numpy as np
import pytest

from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.protocols.naive import NaiveFlooding
from repro.scenario import Scenario
from repro.sim.engine import SimConfig, run_flood
from repro.sim.runner import run_experiment


class TestNaive:
    def test_completes_small_network(self, line5):
        rng = np.random.default_rng(0)
        schedules = ScheduleTable.random(5, 4, rng)
        result = run_flood(
            line5, schedules, FloodWorkload(2), NaiveFlooding(),
            np.random.default_rng(1), SimConfig(coverage_target=1.0),
        )
        assert result.completed

    def test_persistence_validation(self):
        with pytest.raises(ValueError):
            NaiveFlooding(persistence=0.0)
        with pytest.raises(ValueError):
            NaiveFlooding(persistence=1.1)

    def test_worse_than_dbao_on_dense_network(self, small_rgg):
        naive = run_experiment(small_rgg, Scenario(
            protocol="naive", duty_ratio=0.1, n_packets=3, seed=8))
        dbao = run_experiment(small_rgg, Scenario(
            protocol="dbao", duty_ratio=0.1, n_packets=3, seed=8))
        assert naive.mean_failures() > dbao.mean_failures()

    def test_init_kwargs_recorded(self):
        assert NaiveFlooding(persistence=0.2).init_kwargs == {"persistence": 0.2}
