"""Tests for the experiment runner."""

import numpy as np
import pytest

from repro.net.generators import line_topology
from repro.scenario import Scenario, ScenarioError, ScenarioGrid
from repro.sim.runner import run_experiment, run_experiments, run_scenarios


@pytest.fixture
def topo():
    return line_topology(5, prr=1.0)


class TestRunExperiment:
    def test_basic(self, topo):
        spec = Scenario(protocol="opt", duty_ratio=0.2, n_packets=2,
                              seed=1, coverage_target=1.0)
        summary = run_experiment(topo, spec)
        assert summary.n_runs == 1
        assert summary.completion_rate() == 1.0
        assert np.isfinite(summary.mean_delay())

    def test_replications_aggregate(self, topo):
        spec = Scenario(protocol="opt", duty_ratio=0.2, n_packets=2,
                              seed=1, n_replications=3, coverage_target=1.0)
        summary = run_experiment(topo, spec)
        assert summary.n_runs == 3
        assert summary.per_packet_delay().shape == (2,)

    def test_deterministic(self, topo):
        spec = Scenario(protocol="dbao", duty_ratio=0.2, n_packets=2, seed=4)
        a = run_experiment(topo, spec)
        b = run_experiment(topo, spec)
        assert a.mean_delay() == b.mean_delay()
        assert a.mean_failures() == b.mean_failures()

    def test_paired_streams_across_protocols(self, topo):
        # Same seed -> identical schedules for different protocols: the
        # first source transmission happens at the same wake slot.
        specs = [
            Scenario(protocol=p, duty_ratio=0.2, n_packets=1, seed=9)
            for p in ("opt", "dbao")
        ]
        results = [run_experiment(topo, s).results[0] for s in specs]
        first_tx = [r.metrics.delays.first_tx[0] for r in results]
        assert first_tx[0] == first_tx[1]

    def test_opt_gets_collision_free_radio(self, topo):
        spec = Scenario(protocol="opt", duty_ratio=0.2, n_packets=3, seed=2)
        summary = run_experiment(topo, spec)
        assert summary.mean_collisions() == 0.0

    def test_unknown_protocol(self):
        with pytest.raises(ScenarioError, match="unknown protocol 'nope'"):
            Scenario(protocol="nope", duty_ratio=0.2, n_packets=1)

    def test_non_scenario_spec_rejected(self, topo):
        spec = {"protocol": "opt", "duty_ratio": 0.2, "n_packets": 1}
        with pytest.raises(TypeError, match="expected a Scenario, got 'dict'"):
            run_experiments(topo, [spec])

    def test_transmission_delay_measured_on_request(self, topo):
        spec = Scenario(
            protocol="opt", duty_ratio=0.2, n_packets=3, seed=1,
            measure_transmission_delay=True, coverage_target=1.0,
        )
        summary = run_experiment(topo, spec)
        td = summary.per_packet_transmission_delay()
        assert td is not None and td.shape == (3,)
        assert np.all(td > 0)

    def test_transmission_delay_absent_by_default(self, topo):
        spec = Scenario(protocol="opt", duty_ratio=0.2, n_packets=2, seed=1)
        summary = run_experiment(topo, spec)
        assert summary.per_packet_transmission_delay() is None


class TestProtocolSweep:
    """Protocols x duty ratios as one grid (the Fig. 10/11 shape)."""

    @staticmethod
    def sweep(topo, protocols, duty_ratios, **fields):
        grid = ScenarioGrid(
            Scenario(protocol=protocols[0], duty_ratio=duty_ratios[0],
                     n_packets=fields.pop("n_packets"), **fields),
            axes={"protocol": protocols, "duty_ratio": duty_ratios},
        )
        out = {}
        for (proto, duty), summary in zip(
                grid.combos(), run_scenarios(grid.scenarios(), topo=topo)):
            out.setdefault(proto, {})[duty] = summary
        return out

    def test_grid_shape(self, topo):
        grid = self.sweep(topo, ("opt", "dbao"), (0.1, 0.25),
                          n_packets=1, seed=3)
        assert set(grid) == {"opt", "dbao"}
        assert set(grid["opt"]) == {0.1, 0.25}
        for proto in grid:
            for duty in grid[proto]:
                assert grid[proto][duty].completion_rate() == 1.0

    def test_higher_duty_is_faster(self, topo):
        grid = self.sweep(topo, ("opt",), (0.05, 0.5), n_packets=2, seed=3)
        assert grid["opt"][0.5].mean_delay() < grid["opt"][0.05].mean_delay()

    def test_protocol_kwargs_forwarded(self, topo):
        grid = self.sweep(topo, ("of",), (0.2,), n_packets=1, seed=3,
                          protocol_kwargs={"opp_quantile": 0.3})
        summary = grid["of"][0.2]
        assert summary.spec.protocol_kwargs == {"opp_quantile": 0.3}
        assert summary.completion_rate() == 1.0
