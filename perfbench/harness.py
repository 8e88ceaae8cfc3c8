"""Closed loop with one client: it submits one grid at a time.

Each invocation is a fresh process (``child.py``), exactly as a CLI
user pays for it: import, load, topology, pool, run, digest. A run
repeats invocations for the requested seconds and reports medians.

Output checks, for every invocation:

* every cell's digest row equals the pinned row (default seed) or, for
  any other seed, the run's first invocation's row;
* with ``--cache-dir``, the read-back digest equals the run digest (the
  store round trip);
* in a traced run, traced and untraced invocations agree row for row.

A cell failing any check, or an invocation that raises, counts into
``cells_failed_frac``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
PINS = HERE / "pins.json"
CHILD = HERE / "child.py"

#: Invocations per untraced run, at least, however short ``--seconds``:
#: the reported values are medians across them.
MIN_INVOCATIONS = 3
#: One invocation may not take longer than this.
CHILD_TIMEOUT_S = 120.0


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def _become_subreaper() -> None:
    """Adopt orphaned descendants (pool workers, the resource tracker) so
    they can be waited for after their parent invocation exits."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap_descendants(pgid: int, timeout: float = 10.0) -> None:
    """Wait for every adopted descendant; kill the group if it lingers."""
    deadline = time.monotonic() + timeout
    killed = False
    while time.monotonic() < deadline + 5.0:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if not killed and time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed = True
        time.sleep(0.01)


def spawn(cfg: dict):
    """Run one invocation; its JSON record, or ``None`` and the error."""
    cfg = dict(cfg, src=str(SRC), spawn_t=time.time())
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(cfg)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True, cwd=str(ROOT),
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    _reap_descendants(proc.pid)
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-5:]
        return None, f"exit {proc.returncode}: " + " | ".join(tail)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


def load_pins(workload: str, seed: int, reps: int):
    """Pinned digest rows for ``(workload, seed, reps)``, or ``None``."""
    try:
        pins = json.loads(PINS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    entry = pins.get(workload)
    if entry and entry["seed"] == seed and entry["reps"] == reps:
        return entry["rows"]
    return None


def _failed_cells(rec, cfg, reference, n_cells):
    """Indices of the cells an invocation got wrong."""
    if rec is None or len(rec["rows"]) != n_cells \
            or len(reference) != n_cells:
        return set(range(n_cells))
    bad = {i for i, (row, ref) in enumerate(zip(rec["rows"], reference))
           if row != ref}
    if cfg["readback"]:
        back = rec["readback_rows"] or []
        if len(back) != n_cells:
            return set(range(n_cells))
        bad |= {i for i, (row, b) in enumerate(zip(rec["rows"], back))
                if row != b}
    return bad


def _median(values):
    return statistics.median(values) if values else 0.0


def _commit():
    """HEAD of the checkout, or ``None`` when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reps: int = None, pins=None, min_rounds: int = None):
    """Run a workload for ``seconds``; the result plus its provenance.

    A round is one invocation untraced; traced, it is one invocation in
    the workload's own configuration, one serial untraced (for
    ``--jobs`` > 1) and one serial traced. Rounds repeat until
    ``seconds`` have passed and at least ``min_rounds`` ran.

    Returns a dict with ``correct``, ``attempted``, ``failed``,
    ``metrics`` (name -> {value, unit}), ``record`` (provenance, base
    counts and, traced, the last traced invocation's spans) and
    ``invocations`` (every child record, for the self-test).
    """
    spec = catalog.WORKLOADS[workload]
    reps = spec["reps"] if reps is None else reps
    n_cells = catalog.n_cells(workload)
    _become_subreaper()
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        grid_path = run_dir / "grid.json"
        grid_path.write_text(json.dumps(catalog.grid_for(workload, seed,
                                                         reps)))
        normal = {"grid": str(grid_path), "jobs": spec["jobs"],
                  "cache": spec["cache"], "readback": spec["cache"],
                  "trace": False, "role": "normal"}
        rounds = [normal]
        if trace:
            serial = dict(normal, jobs=1, role="baseline")
            rounds = [normal] + ([serial] if spec["jobs"] > 1 else []) \
                + [dict(serial, trace=True, role="traced")]
        if min_rounds is None:
            min_rounds = 1 if trace else MIN_INVOCATIONS

        spawn({"warmup": True})  # byte-compile and warm the page cache
        done = []  # (cfg, record-or-None, error)
        start = time.monotonic()
        n_rounds = 0
        while n_rounds < min_rounds or time.monotonic() - start < seconds:
            for cfg in rounds:
                cache_dir = run_dir / f"cache-{len(done)}"
                rec, err = spawn(dict(
                    cfg, cache_dir=str(cache_dir) if cfg["cache"] else None))
                shutil.rmtree(cache_dir, ignore_errors=True)
                done.append((cfg, rec, err))
            n_rounds += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    reference = pins
    if reference is None:
        reference = next((rec["rows"] for _, rec, _ in done
                          if rec is not None), [])
    failed = 0
    errors = []
    for cfg, rec, err in done:
        failed += len(_failed_cells(rec, cfg, reference, n_cells))
        if err:
            errors.append(err)
    attempted = n_cells * len(done)

    def recs(role):
        return [rec for cfg, rec, _ in done
                if rec is not None and cfg["role"] == role]

    normal_recs = recs("normal")
    traced_recs = recs("traced")
    if trace:
        metrics = _per_layer(normal_recs, recs("baseline") or normal_recs,
                             traced_recs)
    else:
        metrics = {
            "setup_s": _median([r["setup_s"] for r in normal_recs]),
            "wall_s": _median([r["wall_s"] for r in normal_recs]),
            "reps_per_s": _median([r["reps"] / r["wall_s"]
                                   for r in normal_recs]),
            "cpu_s": _median([r["cpu_s"] for r in normal_recs]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in normal_recs]),
        }
        units = {name: unit for name, unit, *_ in catalog.END_TO_END}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in metrics.items()}

    first = next((rec for _, rec, _ in done if rec is not None), None)
    record = {
        "workload": workload,
        "seed": seed,
        "reps_per_cell": reps,
        "jobs": spec["jobs"],
        "invocations": len(done),
        "pinned": pins is not None,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "engine": first["engine"] if first else None,
        "host": {
            "cpu": _cpu_model(),
            "nproc": os.cpu_count(),
            "python": first["python"] if first else platform.python_version(),
            "numpy": first["numpy"] if first else None,
        },
        "base": {
            "cells": n_cells,
            "replications": first["reps"] if first else 0,
            "rep_slots": first["rep_slots"] if first else 0,
        },
        catalog.FAILED_FRAC[0]: failed / attempted if attempted else 1.0,
        "errors": errors[:5],
    }
    if traced_recs:
        record["spans"] = traced_recs[-1]["spans"]
    return {
        "correct": failed == 0 and not errors and bool(normal_recs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
        "invocations": done,
    }


def _per_layer(normal, baseline, traced):
    """Per-layer metrics: executor and setup layers from the untraced
    invocations in the workload's own configuration, the rest from the
    traced ones; medians across invocations."""
    values = {}
    for name, unit, *_ in catalog.PER_LAYER:
        if name == "trace.overhead_frac":
            base = _median([r["wall_s"] for r in baseline])
            value = _median([r["wall_s"] for r in traced]) / base - 1.0 \
                if base else 0.0
        else:
            source = normal if name.startswith(("exec.executor.",
                                                "scenario.")) else traced
            value = _median([r["layers"][name] for r in source
                             if name in r["layers"]])
        values[name] = {"value": value, "unit": unit}
    return values
