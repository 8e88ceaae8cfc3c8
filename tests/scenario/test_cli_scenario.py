"""Tests for the scenario-file CLI: run-scenario, scenario validate/show."""

import json

import pytest

from repro.cli import build_parser, main
from repro.scenario import Scenario, ScenarioGrid, TopologySpec


@pytest.fixture
def grid_file(tmp_path):
    grid = ScenarioGrid(
        Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2, seed=7,
                 topology=TopologySpec(kind="line",
                                       params={"n_sensors": 8, "prr": 0.9})),
        axes={"protocol": ("opt", "dbao")},
        name="cli-demo",
    )
    path = tmp_path / "demo.json"
    path.write_text(grid.to_json())
    return str(path)


@pytest.fixture
def typo_file(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({
        "schema": 1,
        "scenario": {"protocol": "dbao", "duty_ration": 0.1, "n_packets": 2},
    }))
    return str(path)


class TestParser:
    def test_run_scenario_takes_exec_flags(self):
        args = build_parser().parse_args(
            ["run-scenario", "f.json", "--jobs", "2",
             "--cache-dir", "c", "--summary", "s.json"]
        )
        assert (args.file, args.jobs, args.cache_dir, args.summary) \
            == ("f.json", 2, "c", "s.json")

    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])


class TestValidate:
    def test_valid_file_reports_cells(self, grid_file, capsys):
        assert main(["scenario", "validate", grid_file]) == 0
        out = capsys.readouterr().out
        assert "OK: cli-demo" in out and "2 cell(s)" in out

    def test_typo_reports_closest_field(self, typo_file, capsys):
        assert main(["scenario", "validate", typo_file]) == 2
        err = capsys.readouterr().err
        assert "INVALID" in err and "duty_ratio" in err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["scenario", "validate", str(tmp_path / "nope.json")]) == 2

    def test_malformed_value_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"scenario": {
            "protocol": "dbao", "duty_ratio": 0.1, "n_packets": "2"}}))
        assert main(["scenario", "validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "INVALID: n_packets must be an integer, got '2'" in err

    def test_unrunnable_cell_is_invalid(self, tmp_path, capsys):
        # Every cell must build what the runner builds: an unknown
        # protocol on an axis fails here, not inside a worker.
        path = tmp_path / "unrunnable.json"
        path.write_text(json.dumps({
            "scenario": {"protocol": "dbao", "duty_ratio": 0.1,
                         "n_packets": 2},
            "axes": {"protocol": ["dbao", "nope"]},
        }))
        assert main(["scenario", "validate", str(path)]) == 2
        assert "INVALID: unknown protocol 'nope'" in capsys.readouterr().err


class TestShow:
    def test_show_prints_normalized_grid(self, grid_file, capsys):
        assert main(["scenario", "show", grid_file]) == 0
        out = capsys.readouterr().out
        shown = json.loads(out[:out.index("OK:")])
        assert shown["name"] == "cli-demo"
        # Defaults are materialized in the normalized form.
        assert shown["scenario"]["link_model"] == "static"


class TestRunScenario:
    def test_runs_and_prints_every_cell(self, grid_file, capsys):
        assert main(["run-scenario", grid_file]) == 0
        out = capsys.readouterr().out
        assert "cli-demo: 2 cell(s)" in out
        assert out.count("protocol=") == 2

    def test_summary_digest_is_deterministic(self, grid_file, tmp_path,
                                             capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run-scenario", grid_file, "--summary", str(a)]) == 0
        assert main(["run-scenario", grid_file, "--summary", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        digest = json.loads(a.read_text())
        assert digest["n_cells"] == 2
        assert [c["axes"]["protocol"] for c in digest["cells"]] \
            == ["opt", "dbao"]
        assert all(len(c["fingerprint"]) == 64 for c in digest["cells"])

    def test_second_run_with_cache_dir_hits(self, grid_file, tmp_path,
                                            capsys):
        cache = str(tmp_path / "cache")
        assert main(["run-scenario", grid_file, "--cache-dir", cache]) == 0
        assert "0 hit(s)" in capsys.readouterr().err
        assert main(["run-scenario", grid_file, "--cache-dir", cache]) == 0
        assert "0 miss(es)" in capsys.readouterr().err

    def test_invalid_file_exits_2(self, typo_file, capsys):
        assert main(["run-scenario", typo_file]) == 2
        assert "duty_ratio" in capsys.readouterr().err
