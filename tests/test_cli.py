"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig5"])
        assert args.experiment == "fig5"
        assert args.scale == "bench"

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig5", "--scale", "giant"])

    def test_exec_flags_default_off(self):
        for argv in (["run", "fig10"], ["audit", "fig5"]):
            args = build_parser().parse_args(argv)
            assert args.jobs is None
            assert args.cache_dir is None

    def test_exec_flags_parsed(self):
        args = build_parser().parse_args(
            ["run", "fig10", "--jobs", "4", "--cache-dir", ".repro-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == ".repro-cache"
        args = build_parser().parse_args(
            ["audit", "--jobs", "2", "--cache-dir", "c", "fig5"]
        )
        assert args.jobs == 2 and args.cache_dir == "c"

    @pytest.mark.parametrize("verb", [
        ["run", "fig9", "--scale", "smoke"],
        ["run-scenario", "examples/scenario_smoke.json"],
        ["audit", "fig5"],
    ], ids=["run", "run-scenario", "audit"])
    @pytest.mark.parametrize("flag", ["--jobs", "--reps-per-task"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_counts_below_one_exit_2(self, verb, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(verb + [flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_profile_reps_below_one_exit_2(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "examples/scenario_smoke.json", "--reps", value])
        assert exc.value.code == 2
        assert "argument --reps: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_shard_count_below_one_exit_2(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "shard", "examples/scenario_smoke.json", value,
                  "--out-dir", str(tmp_path / "parts")])
        assert exc.value.code == 2
        assert "argument K: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "parts").exists()


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table1" in out

    def test_run_theory_experiment(self, capsys):
        assert main(["run", "fig5", "--scale", "smoke", "--no-sparklines"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_audit_theory_claims(self, capsys):
        assert main(["audit", "--scale", "smoke", "fig5", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "shape claims hold" in out

    def test_audit_unknown_experiment(self, capsys):
        assert main(["audit", "fig99"]) == 2
        assert "no shape checks" in capsys.readouterr().err

    def test_run_parallel_with_cache_dir(self, tmp_path, capsys):
        # First invocation simulates (misses) and fills the cache ...
        cache = str(tmp_path / "cache")
        assert main(["run", "fig10", "--scale", "smoke", "--jobs", "2",
                     "--cache-dir", cache, "--no-sparklines"]) == 0
        err = capsys.readouterr().err
        assert "[cache]" in err and "0 hit(s)" in err
        # ... the second is answered from the store without simulating.
        assert main(["run", "fig10", "--scale", "smoke",
                     "--cache-dir", cache, "--no-sparklines"]) == 0
        captured = capsys.readouterr()
        assert "0 miss(es)" in captured.err
        assert "avg delay" in captured.out

    def test_cache_dir_collides_with_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["run", "fig10", "--scale", "smoke",
                     "--cache-dir", str(blocker)]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_store_merge_refuses_missing_source(self, tmp_path, capsys):
        (tmp_path / "shard0").mkdir()
        assert main(["store", "merge", "--into", str(tmp_path / "merged"),
                     str(tmp_path / "shard0"), str(tmp_path / "typo")]) == 2
        assert "typo is not an existing directory" \
            in capsys.readouterr().err
        assert not (tmp_path / "merged").exists()

    @pytest.mark.parametrize("verb", ["verify", "gc"])
    def test_store_verb_refuses_missing_directory(self, verb, tmp_path,
                                                  capsys):
        assert main(["store", verb, str(tmp_path / "typo")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_report_refuses_missing_cache_dir(self, tmp_path, capsys):
        # A mistyped store path is named as such, not blamed on shards.
        typo = tmp_path / "typo-dir"
        assert main(["report", "examples/scenario_smoke.json",
                     "--cache-dir", str(typo)]) == 2
        err = capsys.readouterr().err
        assert f"{typo}: not a directory" in err
        assert "no stored result" not in err
        assert not typo.exists()

    def test_scenario_shard_refusal_leaves_no_out_dir(self, tmp_path,
                                                      capsys):
        parts = tmp_path / "parts"
        assert main(["scenario", "shard", "examples/scenario_smoke.json",
                     "2", "--out-dir", str(parts)]) == 0
        capsys.readouterr()
        newdir = tmp_path / "newdir"
        assert main(["scenario", "shard",
                     str(parts / "scenario_smoke.shard0of2.json"), "2",
                     "--out-dir", str(newdir)]) == 2
        assert "already shard 0/2" in capsys.readouterr().err
        assert not newdir.exists()

    def test_audit_accepts_exec_flags(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["audit", "--scale", "smoke", "--jobs", "1",
                     "--cache-dir", cache, "fig5", "fig7"]) == 0
        captured = capsys.readouterr()
        assert "shape claims hold" in captured.out
        assert "[cache]" in captured.err

    def test_trace_stats_and_save(self, tmp_path, capsys, monkeypatch):
        # Shrink the trace via a patched config for test speed.
        from repro.net import trace as trace_mod

        small = trace_mod.GreenOrbsConfig(
            n_sensors=60, area_m=320.0, n_clusters=3
        )
        orig = trace_mod.synthesize_greenorbs
        monkeypatch.setattr(
            "repro.net.trace.synthesize_greenorbs",
            lambda seed=2011, config=None: orig(seed=seed, config=small),
        )
        out_path = tmp_path / "t.npz"
        assert main(["trace", "--seed", "3", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "mean_degree" in out
        assert out_path.exists()

    def test_profile_covers_every_scenario(self, tmp_path, capsys):
        # Fig. 9 cells measure probe floods. Every cell runs on the one
        # engine, so even a width-1 profile reports every engine phase.
        import json
        from pathlib import Path

        grid = Path(__file__).resolve().parent.parent / "examples" / "fig9.json"
        report = tmp_path / "profile.json"
        assert main(["profile", str(grid), "--reps", "1", "--no-allocs",
                     "--json", str(report)]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head.startswith("3 cell(s)")
        data = json.loads(report.read_text())
        assert head.endswith(
            f"{data['slots']} replication-slots ({data['idle_slots']} idle)")
        phases = data["phases"]
        for phase in ("prepare", "inject", "propose", "validate", "resolve",
                      "mac", "apply", "observe", "fastforward", "probe"):
            assert phases[phase]["calls"] > 0, phase
