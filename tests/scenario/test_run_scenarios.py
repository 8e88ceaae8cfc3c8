"""Tests for the scenario-driven runner entry point."""

import pickle

import dataclasses
import pytest

from repro.exec import ResultStore, SerialExecutor
from repro.scenario import Scenario, ScenarioGrid, TopologySpec, build_topology
from repro.sim.runner import run_experiments, run_scenarios

LINE = TopologySpec(kind="line", params={"n_sensors": 8, "prr": 0.9})
BASE = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2, seed=5,
                topology=LINE)


def test_results_come_back_in_input_order():
    grid = ScenarioGrid(BASE, axes={"protocol": ("opt", "dbao", "of")})
    summaries = run_scenarios(grid.scenarios())
    assert [s.spec.protocol for s in summaries] == ["opt", "dbao", "of"]


def test_matches_run_experiments_bit_for_bit():
    spec = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                    seed=5, n_replications=2)
    topo = build_topology(LINE)
    (via_spec,) = run_experiments(topo, [spec])
    (via_scenario,) = run_scenarios(
        [dataclasses.replace(BASE, n_replications=2)]
    )
    assert [pickle.dumps(r) for r in via_spec.results] \
        == [pickle.dumps(r) for r in via_scenario.results]


def test_mixed_topologies_group_per_substrate():
    star = dataclasses.replace(
        BASE, topology=TopologySpec(kind="star", params={"n_sensors": 8})
    )
    line_a, line_b = BASE, dataclasses.replace(BASE, protocol="of")
    summaries = run_scenarios([line_a, star, line_b])
    assert [s.spec.protocol for s in summaries] == ["dbao", "dbao", "of"]
    # Grouping must not change per-scenario results vs one-at-a-time runs.
    for scenario, summary in zip((line_a, star, line_b), summaries):
        (alone,) = run_scenarios([scenario])
        assert [pickle.dumps(r) for r in alone.results] \
            == [pickle.dumps(r) for r in summary.results]


def test_default_topology_fills_the_gap():
    topo = build_topology(LINE)
    bare = dataclasses.replace(BASE, topology=None)
    (summary,) = run_scenarios([bare], topo=topo)
    assert summary.n_runs == 1


def test_no_topology_anywhere_is_an_error():
    bare = dataclasses.replace(BASE, topology=None)
    with pytest.raises(ValueError, match="names no topology"):
        run_scenarios([bare])


def test_store_keys_shared_with_experiment_spec_path():
    # A topology-less scenario run on an explicit topology and the same
    # scenario naming that topology must hit the same store entries:
    # the fingerprint hashes data, not call shape.
    store = ResultStore()
    topo = build_topology(LINE)
    spec = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2, seed=5)
    run_experiments(topo, [spec], store=store)
    assert store.stats.misses == 1
    run_scenarios([BASE], store=store)
    assert store.stats.hits == 1 and store.stats.misses == 1


def test_executor_path_is_bit_identical():
    grid = ScenarioGrid(BASE, axes={"protocol": ("opt", "dbao")})
    serial = run_scenarios(grid.scenarios())
    executed = run_scenarios(grid.scenarios(), executor=SerialExecutor())
    for a, b in zip(serial, executed):
        assert [pickle.dumps(r) for r in a.results] \
            == [pickle.dumps(r) for r in b.results]
