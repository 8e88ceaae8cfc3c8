"""Import budget of the simulation path.

``import repro`` is paid by every CLI invocation before it simulates a
slot. scipy.stats, scipy.optimize and networkx each cost more to import
than a small grid costs to run, so nothing a ``run-scenario`` loads may
import them: the engine needs only the scipy.special functions they
delegate to. A fresh interpreter runs the CLI on a tiny grid and reports
what it loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

HEAVY = ("scipy.stats", "scipy.optimize", "networkx")

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

real = runner.run_scenarios
changed = []


def run_scenarios(*args, **kwargs):
    before = set(sys.modules)
    try:
        return real(*args, **kwargs)
    finally:
        changed.append(sorted(before ^ set(sys.modules)))


runner.run_scenarios = run_scenarios
for path in sys.argv[1:]:
    sys.argv = ["repro", "run-scenario", path]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code:
            raise
print(json.dumps({"changed": changed,
                  "heavy": [m for m in %r if m in sys.modules]}))
""" % (HEAVY,)


def test_run_scenario_loads_no_heavy_library(tmp_path):
    paths = []
    for name, grid in GRIDS.items():
        path = tmp_path / name
        path.write_text(json.dumps(grid), encoding="utf-8")
        paths.append(str(path))
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", CHILD, *paths], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["heavy"] == []
    assert report["changed"] == [[], []]
