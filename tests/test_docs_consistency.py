"""Documentation consistency: DESIGN/EXPERIMENTS/README stay in sync with code."""

from pathlib import Path

import pytest

import repro
from repro.experiments import experiment_ids
from repro.protocols import available_protocols

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def docs():
    return {
        name: (REPO / name).read_text()
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
    }


class TestDocsExist:
    def test_required_files_present(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "LICENSE", "pyproject.toml"):
            assert (REPO / name).exists(), f"{name} missing"


class TestDesignCoverage:
    def test_every_experiment_in_design_index(self, docs):
        for eid in experiment_ids():
            if eid in ("fig3",):  # listed, but double-check anyway
                pass
            assert eid in docs["DESIGN.md"], (
                f"experiment {eid!r} missing from DESIGN.md"
            )

    def test_every_protocol_mentioned(self, docs):
        for proto in available_protocols():
            assert proto in docs["DESIGN.md"].lower(), (
                f"protocol {proto!r} missing from DESIGN.md"
            )

    def test_scenario_grid_registry_table(self, docs):
        # DESIGN.md's grid-id table must list exactly the registered
        # scenario grids, each as a `| `id` | ...` table row.
        from repro.experiments.registry import scenario_grid_ids

        rows = [line for line in docs["DESIGN.md"].splitlines()
                if line.startswith("| `")]
        tabled = {line.split("`")[1] for line in rows}
        for gid in scenario_grid_ids():
            assert gid in tabled, (
                f"scenario grid {gid!r} missing from the DESIGN.md table"
            )

    def test_package_layout_names_every_module(self, docs):
        # DESIGN.md §4's tree must list exactly the modules under
        # src/repro (package __init__/__main__ files aside).
        text = docs["DESIGN.md"]
        block = text[text.index("## 4. Package layout"):]
        block = block[block.index("```") + 3:]
        block = block[:block.index("```")]
        lines = [line for line in block.splitlines() if line.strip()]
        assert lines[0].split()[0] == "src/repro/"
        listed, parents = set(), []
        for line in lines[1:]:
            indent = len(line) - len(line.lstrip(" "))
            if indent == 0:
                break  # the next top-level tree (tests/, benchmarks/, ...)
            name = line.split()[0]
            depth = indent // 2 - 1
            del parents[depth:]
            if name.endswith("/"):
                parents.append(name)
            else:
                listed.add("".join(parents) + name)
        package = Path(repro.__file__).resolve().parent
        modules = {
            path.relative_to(package).as_posix()
            for path in package.rglob("*.py")
            if path.name not in ("__init__.py", "__main__.py")
        }
        listed.discard("__init__.py")
        assert sorted(modules - listed) == [], "modules missing from §4"
        assert sorted(listed - modules) == [], "§4 lists absent modules"

    def test_paper_figures_covered(self, docs):
        for artifact in ("fig5", "fig6", "fig7", "fig9", "fig10", "fig11",
                         "table1"):
            assert artifact in docs["EXPERIMENTS.md"].lower().replace(
                "fig. ", "fig"
            ) or artifact in docs["EXPERIMENTS.md"], (
                f"{artifact} not recorded in EXPERIMENTS.md"
            )


class TestReadme:
    def test_mentions_install_and_tests(self, docs):
        readme = docs["README.md"]
        assert "pip install -e ." in readme
        assert "pytest tests/" in readme
        assert "pytest benchmarks/" in readme

    def test_quickstart_snippet_runs(self):
        # The README's core quickstart calls must exist with these names.
        assert hasattr(repro, "run_experiment")
        assert hasattr(repro, "Scenario")
        assert hasattr(repro, "fwl_reliable")
        assert hasattr(repro, "fdl_theorem1")

    def test_version_consistent(self):
        import tomllib

        with open(REPO / "pyproject.toml", "rb") as fh:
            pyproject = tomllib.load(fh)
        assert pyproject["project"]["version"] == repro.__version__


class TestExamplesExist:
    def test_at_least_three_runnable_examples(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        names = {p.name for p in examples}
        assert "quickstart.py" in names

    def test_examples_import_public_api_only(self):
        # Examples must not reach into private modules (underscore paths).
        for path in (REPO / "examples").glob("*.py"):
            text = path.read_text()
            assert "._" not in text.replace("self._", ""), (
                f"{path.name} uses a private module"
            )

    def test_scenario_files_are_valid(self):
        from repro.scenario import load_scenario_file

        files = sorted((REPO / "examples").glob("*.json"))
        names = {p.name for p in files}
        assert {"fig9.json", "hetero.json",
                "scenario_smoke.json"} <= names
        for path in files:
            if path.name.endswith(".expected.json"):
                continue
            assert len(load_scenario_file(path)) >= 1, path.name
