"""Additional engine behaviors: spaced generation, config overrides."""

import numpy as np
import pytest

from repro.net.generators import line_topology
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.protocols.opt import OptOracle, opt_radio_model
from repro.scenario import Scenario
from repro.sim.engine import SimConfig, run_flood
from repro.sim.runner import run_experiment


class TestSpacedGeneration:
    def test_injection_respects_interval(self, line5):
        rng = np.random.default_rng(0)
        schedules = ScheduleTable.random(5, 4, rng)
        workload = FloodWorkload(3, generation_interval=40)
        result = run_flood(
            line5, schedules, workload, OptOracle(), rng,
            SimConfig(coverage_target=1.0,
                      radio=opt_radio_model(lossless=True)),
        )
        first_tx = result.metrics.delays.first_tx
        # Packet p cannot be transmitted before its generation slot.
        for p in range(3):
            assert first_tx[p] >= workload.generation_slot(p)

    def test_slow_injection_removes_blocking(self, line5):
        # With a huge generation gap each packet floods alone: delays are
        # flat instead of growing.
        spec = Scenario(
            protocol="opt", duty_ratio=0.25, n_packets=4, seed=2,
            generation_interval=500, coverage_target=1.0,
        )
        summary = run_experiment(line5, spec)
        delays = summary.per_packet_delay()
        assert np.nanmax(delays) <= np.nanmin(delays) * 3


class TestConfigOverride:
    def test_spec_sim_config_wins(self, line5):
        # A radio override on the spec beats the per-protocol default
        # (here: OPT forced onto a colliding channel).
        spec = Scenario(
            protocol="opt", duty_ratio=0.25, n_packets=2, seed=3,
            coverage_target=1.0, sim={"radio": {"collisions": True}},
        )
        summary = run_experiment(line5, spec)
        assert summary.completion_rate() == 1.0

    def test_crosslayer_gets_overhearing_radio(self, small_rgg):
        spec = Scenario(
            protocol="crosslayer", duty_ratio=0.2, n_packets=2, seed=3,
        )
        summary = run_experiment(small_rgg, spec)
        # Data overhearing produces overheard receptions.
        assert summary.results[0].metrics.overhears > 0

    def test_unicast_protocols_have_no_overhears(self, small_rgg):
        spec = Scenario(
            protocol="dbao", duty_ratio=0.2, n_packets=2, seed=3,
        )
        summary = run_experiment(small_rgg, spec)
        assert summary.results[0].metrics.overhears == 0
