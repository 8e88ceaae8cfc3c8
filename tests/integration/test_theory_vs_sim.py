"""Integration: simulated floods must respect the paper's analytic results."""

import numpy as np
import pytest

from repro.analysis.validate import analytic_lower_bound, respects_lower_bound
from repro.core.fdl import fdl_theorem2_bounds
from repro.core.fwl import fwl_reliable
from repro.core.linkloss import recurrence_hitting_time
from repro.net.generators import line_topology
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.net.topology import Topology
from repro.protocols.opt import OptOracle, opt_radio_model
from repro.scenario import Scenario
from repro.sim.engine import SimConfig, run_flood
from repro.sim.runner import run_experiment


class TestLowerBounds:
    def test_oracle_respects_analytic_bound_on_trace(self, small_rgg):
        # Even the oracle cannot beat the Sec. IV-B recurrence bound.
        duty = 0.1
        bound = analytic_lower_bound(small_rgg, duty)
        summary = run_experiment(small_rgg, Scenario(
            protocol="opt", duty_ratio=duty, n_packets=1, seed=1,
            n_replications=3,
        ))
        # 99%-coverage can finish slightly before the full-coverage bound.
        assert respects_lower_bound(summary.mean_delay(), bound, tolerance=0.25)

    def test_practical_protocols_above_oracle_bound(self, small_rgg):
        duty = 0.1
        bound = analytic_lower_bound(small_rgg, duty)
        for proto in ("dbao", "of"):
            summary = run_experiment(small_rgg, Scenario(
                protocol=proto, duty_ratio=duty, n_packets=1, seed=1,
            ))
            assert summary.mean_delay() >= bound * 0.75


class TestCompleteGraphMatchesBranching:
    """On a complete graph with collision-free radio, flooding IS the
    branching process — the cleanest end-to-end check of Lemma 2."""

    def test_single_packet_compact_waitings(self):
        n_sensors = 31
        topo = Topology.complete(n_sensors, prr=1.0)
        rng = np.random.default_rng(0)
        # Every node awake every slot (duty 100%): compact = original.
        schedules = ScheduleTable(period=1, offsets=[0] * (n_sensors + 1))
        result = run_flood(
            topo, schedules, FloodWorkload(1),
            OptOracle(server_policy="any"), rng,
            SimConfig(coverage_target=1.0,
                      radio=opt_radio_model(lossless=True, overhearing=False)),
        )
        # Doubling every slot: ceil(log2(1+N)) slots (Eq. 6).
        makespan = result.metrics.delays.makespan() + 1
        assert makespan == fwl_reliable(n_sensors)

    def test_multi_packet_within_theorem2_band(self):
        n_sensors, M = 15, 6
        topo = Topology.complete(n_sensors, prr=1.0)
        rng = np.random.default_rng(0)
        schedules = ScheduleTable(period=1, offsets=[0] * (n_sensors + 1))
        result = run_flood(
            topo, schedules, FloodWorkload(M),
            OptOracle(server_policy="any"), rng,
            SimConfig(coverage_target=1.0,
                      radio=opt_radio_model(lossless=True, overhearing=False)),
        )
        bounds = fdl_theorem2_bounds(n_sensors, M, period=1)
        makespan = result.metrics.delays.makespan() + 1
        # The engine's oracle drains packets FCFS (roughly M sequential
        # single-packet floods of ~m slots each); Algorithm 1's
        # freshest-first pipeline is what closes the gap to the Theorem 2
        # band. Require the makespan to sit between the analytic lower
        # bound and the non-pipelined ceiling.
        m = fwl_reliable(n_sensors)
        assert bounds.lower <= makespan <= M * (m + 1) + m


class TestDutyCyclePenalty:
    def test_delay_scales_roughly_with_period(self, line5):
        # Theorem 1: FDL ~ T. Halving duty should about double delay.
        delays = {}
        for duty in (0.5, 0.25):
            summary = run_experiment(line5, Scenario(
                protocol="opt", duty_ratio=duty, n_packets=2, seed=3,
                n_replications=8, coverage_target=1.0,
            ))
            delays[duty] = summary.mean_delay()
        ratio = delays[0.25] / delays[0.5]
        assert 1.2 <= ratio <= 3.0

    def test_loss_magnifies_duty_penalty(self):
        # Sec. IV-B: the k = 2 delay grows faster than the k = 1 delay as
        # the duty cycle shrinks — verified on simulated chains.
        results = {}
        for prr in (1.0, 0.5):
            topo = line_topology(6, prr=prr)
            per_duty = {}
            for duty in (0.25, 0.05):
                summary = run_experiment(topo, Scenario(
                    protocol="opt", duty_ratio=duty, n_packets=1, seed=5,
                    n_replications=10, coverage_target=1.0,
                ))
                per_duty[duty] = summary.mean_delay()
            results[prr] = per_duty[0.05] / per_duty[0.25]
        assert results[0.5] >= results[1.0] * 0.9  # lossy at least as steep

    def test_recurrence_tracks_simulated_single_packet(self):
        # Homogeneous k-class chain: simulated delay within a small factor
        # of the recurrence prediction.
        prr, duty = 0.5, 0.2
        topo = line_topology(6, prr=prr)
        summary = run_experiment(topo, Scenario(
            protocol="opt", duty_ratio=duty, n_packets=1, seed=7,
            n_replications=10, coverage_target=1.0,
        ))
        predicted = recurrence_hitting_time(6, 1 / prr, round(1 / duty))
        measured = summary.mean_delay()
        assert predicted * 0.5 <= measured <= predicted * 6
