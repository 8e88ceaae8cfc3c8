"""Scenario files and module-defined grids are the same workloads.

The committed ``examples/*.json`` files must stay equal — cell for
cell, fingerprint for fingerprint — to the registry grids they mirror,
and running one through ``repro run-scenario`` must hit the exact store
entries ``repro run`` filled (and vice versa): the declarative layer is
a serialization of the experiments, not a parallel implementation.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.registry import scenario_grid, scenario_grid_ids
from repro.scenario import load_scenario_file

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.parametrize("eid", ["fig9", "hetero"])
def test_example_file_equals_registry_grid(eid):
    from_file = load_scenario_file(EXAMPLES / f"{eid}.json")
    from_registry = scenario_grid(eid, scale="smoke")
    assert from_file == from_registry
    assert from_file.fingerprint() == from_registry.fingerprint()


def test_every_registry_grid_serializes_and_round_trips():
    from repro.scenario import ScenarioGrid

    for eid in scenario_grid_ids():
        grid = scenario_grid(eid, scale="smoke")
        again = ScenarioGrid.from_dict(json.loads(grid.to_json()))
        assert again.fingerprint() == grid.fingerprint(), eid


@pytest.mark.parametrize("kind", ["scenario", "schedules", "wide",
                                  "fullduty"])
def test_smoke_expectation_matches_committed_digest(kind, tmp_path, capsys):
    # The CI smoke contract, runnable locally: simulation is
    # bit-identical across machines, so the committed digest is exact.
    out = tmp_path / "summary.json"
    assert main(["run-scenario", str(EXAMPLES / f"{kind}_smoke.json"),
                 "--summary", str(out)]) == 0
    capsys.readouterr()
    expected = (EXAMPLES / f"{kind}_smoke.expected.json").read_text()
    assert json.loads(out.read_text()) == json.loads(expected)


def test_fig9_scenario_file_shares_store_keys_with_run(tmp_path, capsys):
    # ``repro run fig9`` fills the cache; the scenario file replays it
    # with zero misses — same fingerprints end to end — and vice versa.
    cache = str(tmp_path / "cache")
    assert main(["run", "fig9", "--scale", "smoke", "--cache-dir", cache,
                 "--no-sparklines"]) == 0
    err = capsys.readouterr().err
    assert "0 hit(s)" in err and "3 miss(es)" in err
    assert main(["run-scenario", str(EXAMPLES / "fig9.json"),
                 "--cache-dir", cache]) == 0
    assert "3 hit(s), 0 miss(es)" in capsys.readouterr().err
    assert main(["run", "fig9", "--scale", "smoke", "--cache-dir", cache,
                 "--no-sparklines"]) == 0
    assert "0 miss(es)" in capsys.readouterr().err
