"""One CLI-shaped invocation of a workload grid, measured from outside.

Does what ``repro run-scenario GRID --jobs N [--cache-dir D]`` followed
by ``repro report GRID --cache-dir D`` do, through the same public
functions, with timestamps between the steps: import, load the grid,
build its topology, arm the pool (``--jobs`` > 1), then run, stamp the
manifest, digest, and read the results back from a fresh store.

Usage: ``python3 child.py CONFIG_JSON``. CONFIG_JSON holds ``src`` (the
package source directory), ``grid`` (scenario file), ``jobs``,
``cache_dir`` (or null), ``readback``, ``trace`` and ``spawn_t`` (the
parent's ``time.time()`` just before spawning this process); with
``warmup`` set it only imports. The last stdout line is one JSON object
of measurements.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import resource
import sys
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _install_trace(tracer, batch_prof, engine_prof, counts):
    """Spans around every layer's public callables (the traced run)."""
    from repro import scenario
    from repro.analysis import report
    from repro.exec.store import ResultStore
    from repro.net import mac, radio
    from repro.protocols.base import FloodingProtocol
    from repro.sim import batch, engine, runner

    run_flood_batch = batch.run_flood_batch
    run_flood = engine.run_flood

    def batch_profiled(*args, **kwargs):
        if kwargs.get("profiler") is None:
            kwargs["profiler"] = batch_prof
        results = run_flood_batch(*args, **kwargs)
        counts["batch_width"] += len(results)
        counts["batch_rep_slots"] += sum(
            r.metrics.elapsed_slots for r in results)
        return results

    def engine_profiled(*args, **kwargs):
        kwargs["observers"] = tuple(kwargs.get("observers", ())) \
            + (engine_prof,)
        result = run_flood(*args, **kwargs)
        counts["engine_rep_slots"] += result.metrics.elapsed_slots
        return result

    tracer.patch_function(batch, "run_flood_batch", "sim.batch",
                          inner=batch_profiled)
    tracer.patch_function(engine, "run_flood", "sim.engine",
                          inner=engine_profiled)
    for attr in ("run_replication", "run_replication_chunk",
                 "run_replication_stack"):
        tracer.patch_function(runner, attr, "sim.runner")
    for attr in ("resolve_slot", "resolve_slot_reps"):
        tracer.patch_function(radio, attr, "net.radio.resolve")
    tracer.patch_function(report, "grid_digest", "analysis.digest")
    tracer.patch_function(scenario, "build_topology",
                          "scenario.build_topology")
    tracer.patch_methods(FloodingProtocol, ("propose_reps", "propose_batch"),
                         "protocols.propose")
    tracer.patch_methods(FloodingProtocol, ("observe_reps", "observe"),
                         "protocols.observe")
    tracer.patch_methods(FloodingProtocol,
                         ("next_action_slots", "next_action_slot"),
                         "protocols.next_action")
    tracer.patch_methods(mac.LinkModel, ("resolve", "resolve_reps"),
                         "net.mac.resolve")
    for attr in ("key_for", "get_many", "put_many"):
        tracer.patch_methods(ResultStore, (attr,), f"exec.store.{attr}")


def main(argv) -> int:
    cfg = json.loads(argv[1])

    t = time.perf_counter()
    sys.path.insert(0, cfg["src"])
    import numpy
    import repro
    from repro import scenario
    from repro.analysis import report
    from repro.exec import ResultStore, update_manifest, use_execution
    from repro.exec import executor as executor_mod
    from repro.sim import runner
    from repro.sim.arena import global_arena
    from repro.sim.observers import PhaseProfiler
    import_s = time.perf_counter() - t
    if cfg.get("warmup"):
        print(json.dumps({"repro": repro.__name__}))
        return 0

    from spans import Tracer

    t = time.perf_counter()
    grid = scenario.load_scenario_file(cfg["grid"])
    load_s = time.perf_counter() - t
    t = time.perf_counter()
    topologies = {s.topology.fingerprint(): s.topology
                  for s in grid.scenarios()}
    for spec in topologies.values():
        scenario.build_topology(spec)
    build_topology_s = time.perf_counter() - t

    tracer = Tracer()
    batch_prof = PhaseProfiler(sample_allocs=False)
    engine_prof = PhaseProfiler(sample_allocs=False)
    counts = {"batch_width": 0, "batch_rep_slots": 0, "engine_rep_slots": 0}
    if cfg["trace"]:
        _install_trace(tracer, batch_prof, engine_prof, counts)

    jobs = int(cfg["jobs"])
    cache_dir = cfg["cache_dir"]
    with use_execution(jobs=jobs, cache_dir=cache_dir) as ctx:
        executor = ctx.executor
        arm = None
        if jobs > 1:
            # Arm the warm pool through the public map: the workers fork
            # now, so the run's first dispatch finds them ready.
            executor.map(abs, list(range(jobs)))
            arm = executor.last
        workers = [p.pid for p in multiprocessing.active_children()]
        tracer.patch_methods(executor_mod.Executor, ("map",),
                             "exec.executor.map")
        setup_s = time.time() - cfg["spawn_t"]

        arena0 = global_arena().counters()
        cpu0 = time.process_time() + sum(_proc_cpu_s(p) for p in workers)
        t0 = time.perf_counter()
        summaries = runner.run_scenarios(
            grid.scenarios(), executor=executor, store=ctx.store,
            reps_per_task=ctx.reps_per_task)
        if cache_dir is not None:
            update_manifest(cache_dir, grid.grid_fingerprint(),
                            name=grid.name, shard_label="full")
        digest = report.grid_digest(grid, summaries)
        readback = None
        readback_store = None
        if cfg["readback"]:
            readback_store = ResultStore(cache_dir)
            readback = report.grid_digest(grid, runner.load_scenario_summaries(
                grid.scenarios(), readback_store))
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() + sum(_proc_cpu_s(p) for p in workers) \
            - cpu0
        arena1 = global_arena().counters()
        peak = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0] + [_proc_peak_rss_mib(p) for p in workers])
        tracer.uninstall()
        stats = executor.stats
        store_stats = [ctx.store.stats] + (
            [readback_store.stats] if readback_store is not None else [])

    arm_tasks = arm.tasks if arm else 0
    arm_task_s = arm.task_s_total if arm else 0.0
    tasks = stats.tasks - arm_tasks
    task_s = stats.task_s_total - arm_task_s
    map_s = tracer.get("exec.executor.map")[1]
    reps_total = stats.batched_reps + stats.serial_reps
    layers = {
        "scenario.import_s": import_s,
        "scenario.load_s": load_s,
        "scenario.build_topology_s": build_topology_s,
        "exec.executor.map_s": map_s,
        "exec.executor.parallel_efficiency":
            task_s / (jobs * map_s) if map_s else 0.0,
        "exec.executor.task_imbalance":
            stats.task_s_max / (task_s / tasks) if task_s else 0.0,
        "exec.executor.task_s": task_s,
        "exec.executor.tasks": tasks,
        "exec.executor.pickled_bytes":
            stats.pickled_bytes - (arm.pickled_bytes if arm else 0),
        "exec.executor.shared_bytes": stats.shared_bytes,
        "exec.executor.spinup_s": arm.spinup_s if arm else 0.0,
        "exec.executor.batch_coverage":
            stats.batched_reps / reps_total if reps_total else 0.0,
    }
    if cfg["trace"]:
        layers.update(_traced_layers(tracer, batch_prof, engine_prof, counts,
                                     arena0, arena1, store_stats, cache_dir))

    rep_slots = sum(r.metrics.elapsed_slots
                    for s in summaries for r in s.results)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak,
        "cells": len(grid),
        "reps": sum(s.n_replications for s in grid.scenarios()),
        "rep_slots": rep_slots,
        "engine": digest["engine"],
        "rows": digest["cells"],
        "readback_rows": readback["cells"] if readback else None,
        "layers": layers,
        "violations": tracer.violations,
        "spans": {name: {"calls": calls, "s": incl, "self_s": own}
                  for name, (calls, incl, own) in tracer.ops.items()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }))
    return 0


def _traced_layers(tracer, batch_prof, engine_prof, counts, arena0, arena1,
                   store_stats, cache_dir):
    def calls(name):
        return tracer.get(name)[0]

    def incl(name):
        return tracer.get(name)[1]

    def own(name):
        return tracer.get(name)[2]

    bytes_written = 0
    if cache_dir is not None:
        with os.scandir(cache_dir) as entries:
            bytes_written = sum(e.stat().st_size for e in entries
                                if e.name.endswith(".rsum"))
    borrows = arena1[0] - arena0[0]
    out = {
        "exec.store.key_for_s": incl("exec.store.key_for"),
        "exec.store.put_many_s": incl("exec.store.put_many"),
        "exec.store.get_many_s": incl("exec.store.get_many"),
        "exec.store.bytes_written": bytes_written,
        "exec.store.hits": sum(s.hits for s in store_stats),
        "exec.store.misses": sum(s.misses for s in store_stats),
        "exec.store.rejected": sum(s.rejected for s in store_stats),
        "sim.runner.self_s": own("sim.runner"),
        "sim.batch.s": incl("sim.batch"),
        "sim.batch.self_s": own("sim.batch"),
        "sim.batch.calls": calls("sim.batch"),
        "sim.batch.width_mean":
            counts["batch_width"] / calls("sim.batch")
            if calls("sim.batch") else 0.0,
        "sim.batch.executed_slot_frac":
            batch_prof.slots / counts["batch_rep_slots"]
            if counts["batch_rep_slots"] else 0.0,
        "sim.engine.s": incl("sim.engine"),
        "sim.engine.self_s": own("sim.engine"),
        "sim.engine.calls": calls("sim.engine"),
        "sim.engine.executed_slot_frac":
            engine_prof.slots / counts["engine_rep_slots"]
            if counts["engine_rep_slots"] else 0.0,
        "protocols.propose_s": own("protocols.propose"),
        "protocols.propose_calls": calls("protocols.propose"),
        "protocols.next_action_s": own("protocols.next_action"),
        "protocols.next_action_calls": calls("protocols.next_action"),
        "protocols.observe_s": own("protocols.observe"),
        "net.mac.self_s": own("net.mac.resolve"),
        "net.radio.resolve_s": incl("net.radio.resolve"),
        "net.radio.resolve_calls": calls("net.radio.resolve"),
        "sim.arena.borrows": borrows,
        "sim.arena.grows": arena1[1] - arena0[1],
        "sim.arena.borrows_per_slot":
            borrows / batch_prof.loop_slots if batch_prof.loop_slots else 0.0,
        "analysis.digest_s": incl("analysis.digest"),
    }
    for layer, prof in (("batch", batch_prof), ("engine", engine_prof)):
        for phase, seconds in prof.phase_seconds.items():
            out[f"sim.{layer}.phase.{phase}_s"] = seconds
    return out


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
