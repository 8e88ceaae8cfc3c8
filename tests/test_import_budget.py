"""Import budget of the simulation path.

``import repro`` is paid by every CLI invocation before it simulates a
slot. scipy (``scipy.special`` included, whose array-API layer pulls in
``numpy.f2py`` and ``numpy.testing``) and networkx each cost more to
import than a small grid costs to run, so nothing that ``run-scenario``
or ``report`` loads may import them: the engine's two special functions
are ports in ``repro.special``. A fresh interpreter runs the CLI on a
tiny grid, reads it back from the store the way ``report`` does, and
reports what it loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: Packages (each with every submodule) the CLI path must not load.
HEAVY = ("scipy", "networkx", "numpy.f2py", "numpy.testing")

#: OPT, DBAO and OF on a GreenOrbs slice, and one 802.15.4 CSMA cell on a
#: geometric deployment: every protocol family and MAC the paper grids use.
GRIDS = {
    "greenorbs.json": {
        "schema": 1,
        "scenario": {
            "protocol": "opt", "duty_ratio": 0.1, "n_packets": 2,
            "seed": 2011,
            "topology": {"kind": "greenorbs", "seed": 2011,
                         "params": {"n_sensors": 30}},
        },
        "axes": {"protocol": ["opt", "dbao", "of"]},
    },
    "csma.json": {
        "schema": 1,
        "scenario": {
            "protocol": "dbao", "duty_ratio": 0.2, "n_packets": 2,
            "seed": 2011, "mac": "csma_802154",
            "topology": {"kind": "geometric", "seed": 2011,
                         "params": {"n_nodes": 20, "area_m": 150.0,
                                    "placement": "uniform"}},
        },
    },
}

CHILD = """
import json, runpy, sys

import repro.sim.runner as runner

changed = {}


def watch(name):
    real = getattr(runner, name)

    def wrapper(*args, **kwargs):
        before = set(sys.modules)
        try:
            return real(*args, **kwargs)
        finally:
            changed.setdefault(name, []).append(
                sorted(before ^ set(sys.modules)))

    setattr(runner, name, wrapper)


watch("run_scenarios")
watch("load_scenario_summaries")
for argv in json.loads(sys.argv[1]):
    sys.argv = ["repro", *argv]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code:
            raise
heavy = [m for m in sys.modules
         if any(m == h or m.startswith(h + ".") for h in %r)]
print(json.dumps({"changed": changed, "heavy": sorted(heavy)}))
""" % (HEAVY,)


def test_run_scenario_loads_no_heavy_library(tmp_path):
    paths = []
    for name, grid in GRIDS.items():
        path = tmp_path / name
        path.write_text(json.dumps(grid), encoding="utf-8")
        paths.append(str(path))
    greenorbs, csma = paths
    # `report` reads the first run's store back, as it does after a
    # (sharded) run.
    argvs = [
        ["run-scenario", greenorbs, "--cache-dir", "store"],
        ["run-scenario", csma],
        ["report", greenorbs, "--cache-dir", "store",
         "--summary", "summary.json"],
    ]
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["heavy"] == []
    assert report["changed"] == {"run_scenarios": [[], []],
                                 "load_scenario_summaries": [[]]}
    summary = json.loads((tmp_path / "summary.json").read_text("utf-8"))
    assert summary["n_cells"] == 3
