"""Benchmarks: warm-pool + shared-memory dispatch vs the PR3 baseline.

Two scenarios, journaled into ``BENCH_exec.json`` (see ``exec_journal``
in ``conftest.py``), both against the **legacy baseline** — PR3's
dispatch reproduced verbatim: a fresh ``ProcessPoolExecutor`` per
``map`` call, every task a self-contained ``(topo, spec, rep)`` tuple
(the topology re-pickled into every chunk), ``chunksize =
ceil(n / (4 * jobs))``.

* ``fig10_grid`` — end-to-end wall clock of a reduced fig10-style grid
  (smoke trace, protocols x duty ratios x replications) through the
  serial backend, the legacy baseline and the warm shared-memory
  executor, asserting bit-identical per-replication results and the
  >= 10x shrink in bytes pickled to workers. This grid is
  **compute-bound**: the per-slot simulation loop is the wall, not
  dispatch, so an end-to-end "speedup vs legacy" number here would
  mostly measure host core count (it read an uninformative 1.07x on a
  1-core box). The journal therefore reports compute saturation
  explicitly — ``serial_tasks_per_sec``, ``tasks_per_sec_per_job`` and
  ``parallel_efficiency`` (throughput per job over the serial rate:
  ~1.0 means perfect scaling, ~1/jobs means timeshared cores) — and
  the end-to-end assertion is parity-with-tolerance, not a speedup
  floor. Dispatch savings are asserted where they are measurable, in
  ``dispatch_overhead``.
* ``dispatch_overhead`` — the cost the tentpole actually removed,
  isolated: repeated dispatches of trivial tasks against the full bench
  trace. The legacy baseline pays pool spawn + megabytes of topology
  transport per dispatch; the warm executor pays a cached shared-memory
  ref. This is where the >= 1.5x contract is asserted (measured margins
  are >> 10x).

``REPRO_BENCH_JOBS`` overrides the worker count (CI smoke uses 2).
"""

import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

from repro.exec import ParallelExecutor, SerialExecutor
from repro.experiments._common import get_trace
from repro.scenario import Scenario
from repro.sim.runner import run_experiments, run_replication


def _legacy_task(task):
    """PR3's worker function verbatim: one self-contained tuple per task."""
    topo, spec, rep = task
    return run_replication(topo, spec, rep)

JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or 4

#: Reduced fig10-style grid: every protocol, two duty ratios, paired
#: replications — 12 tasks, seconds of simulation at smoke scale.
GRID = [
    Scenario(protocol=proto, duty_ratio=duty, n_packets=2,
             seed=2011, n_replications=2)
    for proto in ("opt", "dbao", "of")
    for duty in (0.1, 0.2)
]

#: End-to-end wall clock on a timeshared 1-core runner is noisy; warm
#: must stay within this envelope of the legacy baseline there (on
#: multi-core hosts it simply wins).
PARITY_TOLERANCE = 1.35
PARITY_SLACK_S = 0.5


def _legacy_chunksize(n_tasks: int, jobs: int) -> int:
    return max(1, math.ceil(n_tasks / (4 * jobs)))


def _legacy_map(topo, specs, jobs):
    """PR3's dispatch verbatim; returns (flat results, bytes pickled)."""
    tasks = [(topo, spec, rep) for spec in specs
             for rep in range(spec.n_replications)]
    chunksize = _legacy_chunksize(len(tasks), jobs)
    pickled = sum(
        len(pickle.dumps(tasks[i:i + chunksize], pickle.HIGHEST_PROTOCOL))
        for i in range(0, len(tasks), chunksize)
    )
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_legacy_task, tasks, chunksize=chunksize))
    return results, pickled


def _legacy_probe(task):
    topo, i = task
    return topo.n_nodes + i


def _probe(topo, i):
    return topo.n_nodes + i


def _best_of(fn, rounds=3):
    """Self-timed best-of-N: (result, best elapsed seconds)."""
    best_s, best = None, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best_s is None or elapsed < best_s:
            best_s, best = elapsed, result
    return best, best_s


def _flat(summaries):
    return [r for summary in summaries for r in summary.results]


def test_bench_exec_fig10_grid(once, benchmark, exec_journal):
    topo = get_trace("smoke")
    n_tasks = sum(spec.n_replications for spec in GRID)

    serial, serial_s = _best_of(
        lambda: run_experiments(topo, GRID, executor=SerialExecutor())
    )
    (legacy_flat, legacy_bytes), legacy_s = _best_of(
        lambda: _legacy_map(topo, GRID, JOBS)
    )

    executor = ParallelExecutor(jobs=JOBS)
    try:
        # Arm the pool the way a sweep session does (spin-up is paid
        # once per session, journaled separately via the stats line).
        executor.map(_probe, list(range(2)), broadcast=(topo,))
        t0 = time.perf_counter()
        warm = once(run_experiments, topo, GRID, executor=executor)
        warm_s = time.perf_counter() - t0
        warm_bytes = executor.last.pickled_bytes
        spinup_s = executor.stats.spinup_s
    finally:
        executor.close()

    shrink = legacy_bytes / max(warm_bytes, 1)
    # Compute-saturation framing: this grid is simulation-bound, so the
    # honest throughput story is tasks/sec per job against the serial
    # rate, not an end-to-end "speedup vs legacy" that mostly measures
    # how many cores the host happens to have.
    serial_rate = n_tasks / serial_s
    warm_rate = n_tasks / warm_s
    rate_per_job = warm_rate / JOBS
    efficiency = rate_per_job / serial_rate
    benchmark.extra_info.update(
        jobs=JOBS, parallel_efficiency=round(efficiency, 2))
    exec_journal["fig10_grid"] = {
        "scenario": "fig10_grid",
        "jobs": JOBS,
        "tasks": n_tasks,
        "serial_s": round(serial_s, 4),
        "legacy_s": round(legacy_s, 4),
        "warm_s": round(warm_s, 4),
        "tasks_per_sec": round(warm_rate, 2),
        "serial_tasks_per_sec": round(serial_rate, 2),
        "tasks_per_sec_per_job": round(rate_per_job, 2),
        "parallel_efficiency": round(efficiency, 2),
        "legacy_pickled_bytes": int(legacy_bytes),
        "warm_pickled_bytes": int(warm_bytes),
        "pickle_shrink": round(shrink, 1),
        "pool_spinup_s": round(spinup_s, 4),
    }

    # The determinism contract, across all three backends, bit for bit.
    serial_blobs = [pickle.dumps(r) for r in _flat(serial)]
    assert serial_blobs == [pickle.dumps(r) for r in legacy_flat]
    assert serial_blobs == [pickle.dumps(r) for r in _flat(warm)]
    # The broadcast acceptance: >= 10x fewer bytes pickled to workers.
    assert shrink >= 10.0
    # End-to-end: never meaningfully slower than the legacy dispatch.
    assert warm_s <= legacy_s * PARITY_TOLERANCE + PARITY_SLACK_S


def test_bench_exec_dispatch_overhead(once, benchmark, exec_journal):
    topo = get_trace("bench")  # the full 1.7 MiB trace substrate
    n, rounds = 64, 3
    expected = [topo.n_nodes + i for i in range(n)]

    def legacy_session():
        for _ in range(rounds):
            tasks = [(topo, i) for i in range(n)]
            chunksize = _legacy_chunksize(n, JOBS)
            with ProcessPoolExecutor(max_workers=JOBS) as pool:
                out = list(pool.map(_legacy_probe, tasks,
                                    chunksize=chunksize))
            assert out == expected

    _, legacy_s = _best_of(legacy_session)

    executor = ParallelExecutor(jobs=JOBS)
    try:
        executor.map(_probe, list(range(2)), broadcast=(topo,))  # arm

        def warm_session():
            for _ in range(rounds):
                assert executor.map(_probe, list(range(n)),
                                    broadcast=(topo,)) == expected

        t0 = time.perf_counter()
        once(warm_session)
        # once() re-runs nothing; self-time for the journal regardless.
        warm_s = time.perf_counter() - t0
    finally:
        executor.close()

    total = n * rounds
    speedup = legacy_s / max(warm_s, 1e-9)
    benchmark.extra_info.update(jobs=JOBS, speedup_vs_legacy=round(speedup, 2))
    exec_journal["dispatch_overhead"] = {
        "scenario": "dispatch_overhead",
        "jobs": JOBS,
        "tasks": total,
        "dispatches": rounds,
        "legacy_s": round(legacy_s, 4),
        "warm_s": round(warm_s, 4),
        "legacy_tasks_per_sec": round(total / legacy_s, 1),
        "tasks_per_sec": round(total / warm_s, 1),
        "speedup_vs_legacy": round(speedup, 2),
    }

    # The tentpole's contract, with two orders of magnitude of margin:
    # dropping per-dispatch pool spawn + topology transport must be
    # worth at least 1.5x on dispatch-bound work.
    assert speedup >= 1.5
