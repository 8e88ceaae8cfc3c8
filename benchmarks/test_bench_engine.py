"""Benchmarks for the slot pipeline itself — engine throughput.

Three scenarios, journaled into ``BENCH_engine.json``:

* **fig9-dbao** — one honest DBAO flood at the fig9 trace scale
  (298-sensor GreenOrbs trace, 5% duty, M = 20): the contention-and-
  belief-heavy workload whose proposal path dominates engine runtime.
  Traffic occupies most slots, so this guards the *dense* regime — the
  skip must pay for its frontier queries here, not just win elsewhere.
  Measured with the quiescence fast-forward on and off.
* **fig9-mac** — the layered link stack's cost: the same fig9-scale
  DBAO flood resolved through an explicit
  :class:`~repro.net.mac.IdealCsmaLink` (the default path routes
  through it too; this entry pins the layering overhead by name). The
  bench asserts the layered rate stays within 5% of the fig9-dbao
  baseline journaled in the same session, and journals an 802.15.4
  CSMA-CA replications/sec entry alongside for visibility (no floor —
  the real MAC does honest per-micro-round work).
* **lemma2-single-packet** — one packet flooding the same trace at a
  very low duty cycle (period 8000), the regime of the paper's Lemma 2
  where delay is almost entirely sleep latency. Nearly every slot is
  provably quiescent, so the compact-time skip should dominate: the
  bench asserts fast-forward is at least 3x faster than slot-by-slot.
* **fig10-reps** — the replication axis: a batch-native subset of the
  fig10 grid (opt + dbao at two duty ratios, smoke trace) run
  replication-by-replication versus as one ``(R, …)`` batched engine
  invocation per cell. Results are asserted bit-identical; the
  journaled number is replications/sec, and the batched path must beat
  the serial baseline by the width-scaled floor (>= 10x at the
  committed R = 64). ``REPRO_BENCH_REPS`` overrides R (CI smoke uses a
  small width).
* **fig10-of-reps** — the same contract for the fallback-protocol
  batch: OF's gate math and per-replication RNG draws are the heaviest
  of the newly batch-native proposal paths, so it gets its own
  journaled floor (>= 5x at the committed R = 64).
* **fig10-column** — cross-cell stacking: a whole OF duty column
  (three duty ratios) as ONE :func:`run_replication_stack` engine
  invocation versus one batched invocation per cell. Bit-identity is
  asserted; the journaled number is stacked replications/sec with the
  per-cell ratio alongside (stacking trades a little per-slot width
  for task-count collapse, so the guard only excludes pathological
  slowdowns).
"""

import os
import pickle
import time

import numpy as np

from repro.experiments._common import get_trace
from repro.net.packet import FloodWorkload
from repro.net.schedule import ScheduleTable
from repro.protocols.base import make_protocol
from repro.protocols.opt import opt_radio_model
from repro.scenario import Scenario
from repro.sim.engine import SimConfig, run_flood
from repro.sim.runner import (run_replication, run_replication_chunk,
                              run_replication_stack)

def _dbao_flood(fast_forward=True, link=None):
    topo = get_trace("full")
    schedules = ScheduleTable.random(
        topo.n_nodes, 20, np.random.default_rng(0)
    )
    workload = FloodWorkload(n_packets=20, generation_interval=1)
    t0 = time.perf_counter()
    result = run_flood(
        topo, schedules, workload, make_protocol("dbao"),
        np.random.default_rng(42),
        SimConfig(max_slots=50_000, fast_forward=fast_forward),
        link=link,
    )
    elapsed = time.perf_counter() - t0
    return result, elapsed


def _lemma2_flood(fast_forward=True):
    topo = get_trace("full")
    schedules = ScheduleTable.random(
        topo.n_nodes, 8000, np.random.default_rng(1)
    )
    t0 = time.perf_counter()
    result = run_flood(
        topo, schedules, FloodWorkload(n_packets=1), make_protocol("opt"),
        np.random.default_rng(7),
        SimConfig(max_slots=500_000, coverage_target=1.0,
                  fast_forward=fast_forward, radio=opt_radio_model()),
    )
    elapsed = time.perf_counter() - t0
    return result, elapsed


def test_bench_engine_dbao_slot_throughput(best_of, bench_journal, bench_record):
    result, elapsed = best_of(_dbao_flood, rounds=4)
    assert result.completed
    slots = result.metrics.elapsed_slots
    rate = slots / elapsed
    bench_journal["fig9-dbao/ff-on"] = bench_record(
        "fig9-dbao", elapsed, slots, fast_forward=True, rounds=4)
    print(f"\nDBAO fig9-scale (ff on): {slots} slots in {elapsed:.3f}s "
          f"({rate:.0f} slots/sec)")
    # Generous floor — catches order-of-magnitude pipeline regressions
    # without flaking on slow CI machines. The batched pipeline clears
    # ~3000 slots/sec on a dev container.
    assert rate > 300


def test_bench_engine_dbao_slot_by_slot(best_of, bench_journal, bench_record):
    result, elapsed = best_of(lambda: _dbao_flood(fast_forward=False),
                              rounds=4)
    assert result.completed
    slots = result.metrics.elapsed_slots
    rate = slots / elapsed
    bench_journal["fig9-dbao/ff-off"] = bench_record(
        "fig9-dbao", elapsed, slots, fast_forward=False, rounds=4)
    print(f"\nDBAO fig9-scale (ff off): {slots} slots in {elapsed:.3f}s "
          f"({rate:.0f} slots/sec)")
    assert rate > 300
    # Fast-forward must never cost throughput: only an idle slot asks
    # the protocol's quiescence contract (next_action_slots) for the
    # next slot with possible traffic, and a traffic slot never asks,
    # so in this dense flood the ff-on run (journaled just above by the
    # throughput bench in the same session, back to back on the same
    # host) has to keep pace with slot-by-slot execution. 0.95 absorbs
    # measurement noise.
    ff_on = bench_journal.get("fig9-dbao/ff-on")
    if ff_on is not None:
        assert ff_on["slots_per_sec"] >= 0.95 * rate, (
            f"fast-forward run is slower than slot-by-slot: "
            f"{ff_on['slots_per_sec']} vs {rate:.1f} slots/sec")


def test_bench_mac_ideal_link_overhead(best_of, bench_journal, bench_record):
    """The layered resolution path must be free when the MAC is ideal.

    Runs the fig9-scale DBAO flood through an explicitly constructed
    :class:`IdealCsmaLink` against the engine-default path, with the
    rounds *interleaved* so host drift hits both variants equally, and
    gates the layered rate at >= 95% of the default's. (Sequential
    best-of pairs flake: a whole bench's rounds land in one thermal /
    scheduling regime.) Also journals a CSMA-CA throughput entry on the
    batched smoke grid so the real MAC's cost is visible in the series.
    """
    from repro.net.mac import IdealCsmaLink

    t_default, t_layered = [], []
    result = None
    for _ in range(4):
        base_result, t = _dbao_flood()
        t_default.append(t)
        result, t = _dbao_flood(link=IdealCsmaLink())
        t_layered.append(t)
        assert base_result.metrics.elapsed_slots == \
            result.metrics.elapsed_slots
    assert result.completed
    slots = result.metrics.elapsed_slots
    elapsed = min(t_layered)
    rate = slots / elapsed
    base_rate = slots / min(t_default)
    record = bench_record("fig9-mac", elapsed, slots,
                          fast_forward=True, rounds=4)
    record["link"] = "ideal"
    record["default_path_slots_per_sec"] = round(base_rate, 1)
    bench_journal["fig9-mac/ideal"] = record
    print(f"\nDBAO fig9-scale (layered ideal link): {slots} slots in "
          f"{elapsed:.3f}s ({rate:.0f} slots/sec vs default "
          f"{base_rate:.0f})")
    assert rate > 300
    assert rate >= 0.95 * base_rate, (
        f"explicit ideal link costs more than 5% vs the default path: "
        f"{rate:.1f} vs {base_rate:.1f} slots/sec")

    # CSMA-CA visibility entry: the batched smoke grid under the real
    # MAC. Honest micro-round contention is expected to cost real time;
    # journaled, not gated.
    from repro.scenario import Scenario

    topo = get_trace("smoke")
    csma_specs = [
        Scenario(protocol="dbao", duty_ratio=duty, n_packets=4,
                 seed=2011, n_replications=REPS, mac="csma_802154")
        for duty in (0.1, 0.2)
    ]
    batched, batched_s = best_of(
        lambda: _rep_grid_batched(topo, csma_specs), rounds=3)
    total_reps = len(csma_specs) * REPS
    cs_slots = sum(r.metrics.elapsed_slots for cell in batched for r in cell)
    cs_record = bench_record("fig9-mac", batched_s, cs_slots,
                             fast_forward=True, rounds=3)
    cs_record.update({
        "link": "csma_802154",
        "n_replications": REPS,
        "grid_cells": len(csma_specs),
        "reps_per_sec": round(total_reps / batched_s, 1),
    })
    bench_journal["fig9-mac/csma"] = cs_record
    print(f"fig9-mac CSMA-CA (R={REPS}): "
          f"{total_reps / batched_s:.1f} reps/sec batched")


def test_bench_lemma2_fast_forward_speedup(best_of, bench_journal, bench_record):
    on, t_on = best_of(_lemma2_flood, rounds=3)
    off, t_off = best_of(lambda: _lemma2_flood(fast_forward=False),
                         rounds=3)
    assert on.completed and off.completed
    # Bit-identical trajectories are pinned by the tier-1 suite; the
    # cheap invariants here just guard against benching different runs.
    assert on.metrics.elapsed_slots == off.metrics.elapsed_slots
    assert on.metrics.tx_attempts == off.metrics.tx_attempts
    slots = on.metrics.elapsed_slots
    bench_journal["lemma2-single-packet/ff-on"] = bench_record(
        "lemma2-single-packet", t_on, slots, fast_forward=True, rounds=3)
    bench_journal["lemma2-single-packet/ff-off"] = bench_record(
        "lemma2-single-packet", t_off, slots, fast_forward=False, rounds=3)
    ratio = t_off / t_on
    print(f"\nlemma2 single packet: ff on {t_on * 1e3:.0f}ms, "
          f"ff off {t_off * 1e3:.0f}ms ({ratio:.1f}x)")
    # The compact-time claim: where sleep latency dominates simulated
    # time, it must also dominate simulation time. Measured ~6x on a
    # dev container; 3x is the acceptance floor.
    assert ratio >= 3.0


REPS = int(os.environ.get("REPRO_BENCH_REPS", "0")) or 64

#: The original batch-native pair of the fig10 grid — kept as-is so the
#: journal series stays comparable across engine versions.
_REP_SPECS = [
    Scenario(protocol=proto, duty_ratio=duty, n_packets=4,
             seed=2011, n_replications=REPS)
    for proto in ("opt", "dbao")
    for duty in (0.1, 0.2)
]

#: The fallback-protocol column: OF is the heaviest of the newly
#: batch-native proposal paths (float gate math + per-replication
#: permutation draws), so it gets its own journaled floor.
_OF_SPECS = [
    Scenario(protocol="of", duty_ratio=duty, n_packets=4,
             seed=2011, n_replications=REPS)
    for duty in (0.1, 0.2)
]


def _rep_grid_serial(topo, specs=_REP_SPECS):
    t0 = time.perf_counter()
    results = [
        [run_replication(topo, spec, rep) for rep in range(REPS)]
        for spec in specs
    ]
    return results, time.perf_counter() - t0


def _rep_grid_batched(topo, specs=_REP_SPECS):
    t0 = time.perf_counter()
    results = [run_replication_chunk(topo, spec, 0, REPS)
               for spec in specs]
    return results, time.perf_counter() - t0


def test_bench_replications_per_sec(best_of, bench_journal, bench_record):
    topo = get_trace("smoke")
    # The batched grid finishes in a couple of seconds, so any transient
    # host stall lands squarely in one round; more rounds give the min
    # estimator the same noise immunity the long serial runs get for
    # free. Total added cost is a few seconds.
    batched, batched_s = best_of(lambda: _rep_grid_batched(topo), rounds=7)
    serial, serial_s = best_of(lambda: _rep_grid_serial(topo), rounds=2)

    # The replication axis is a pure throughput device: every
    # replication extracted from a batch must equal its serial twin
    # bit for bit (the golden suite pins trajectories; this guards the
    # benched configurations specifically).
    for cell_serial, cell_batched in zip(serial, batched):
        assert ([pickle.dumps(r) for r in cell_serial]
                == [pickle.dumps(r) for r in cell_batched])

    total_reps = len(_REP_SPECS) * REPS
    slots = sum(r.metrics.elapsed_slots for cell in batched for r in cell)
    serial_rate = total_reps / serial_s
    batched_rate = total_reps / batched_s
    speedup = serial_s / batched_s
    record = bench_record("fig10-reps", batched_s, slots,
                          fast_forward=True, rounds=7)
    record.update({
        "n_replications": REPS,
        "grid_cells": len(_REP_SPECS),
        "reps_per_sec": round(batched_rate, 1),
        "serial_wallclock_s": round(serial_s, 4),
        "serial_reps_per_sec": round(serial_rate, 1),
        "speedup_vs_serial": round(speedup, 2),
    })
    bench_journal["fig10-reps/batched"] = record
    print(f"\nfig10 reps (R={REPS}): serial {serial_rate:.1f} reps/sec, "
          f"batched {batched_rate:.1f} reps/sec ({speedup:.1f}x)")
    # Per-slot python dispatch amortizes over the batch width, so the
    # contract scales with R: >= 10x at the committed R = 64, relaxed
    # proportionally when CI smoke runs a narrow batch.
    assert speedup >= min(10.0, REPS / 4.0)


def test_bench_of_replications_per_sec(best_of, bench_journal, bench_record):
    topo = get_trace("smoke")
    batched, batched_s = best_of(
        lambda: _rep_grid_batched(topo, _OF_SPECS), rounds=7)
    serial, serial_s = best_of(
        lambda: _rep_grid_serial(topo, _OF_SPECS), rounds=2)

    for cell_serial, cell_batched in zip(serial, batched):
        assert ([pickle.dumps(r) for r in cell_serial]
                == [pickle.dumps(r) for r in cell_batched])

    total_reps = len(_OF_SPECS) * REPS
    slots = sum(r.metrics.elapsed_slots for cell in batched for r in cell)
    serial_rate = total_reps / serial_s
    batched_rate = total_reps / batched_s
    speedup = serial_s / batched_s
    record = bench_record("fig10-of-reps", batched_s, slots,
                          fast_forward=True, rounds=7)
    record.update({
        "n_replications": REPS,
        "grid_cells": len(_OF_SPECS),
        "reps_per_sec": round(batched_rate, 1),
        "serial_wallclock_s": round(serial_s, 4),
        "serial_reps_per_sec": round(serial_rate, 1),
        "speedup_vs_serial": round(speedup, 2),
    })
    bench_journal["fig10-of-reps/batched"] = record
    print(f"\nfig10 OF reps (R={REPS}): serial {serial_rate:.1f} reps/sec, "
          f"batched {batched_rate:.1f} reps/sec ({speedup:.1f}x)")
    # OF keeps small per-replication python sections (RNG permutation
    # draws) that the other floods don't, so its floor is lower than the
    # opt/dbao grid's: >= 5x at the committed R = 64.
    assert speedup >= min(5.0, REPS / 4.0)


#: A whole fig10 duty column for the cross-cell stacking bench.
_COLUMN_SPECS = [
    Scenario(protocol="of", duty_ratio=duty, n_packets=4,
             seed=2011, n_replications=REPS)
    for duty in (0.05, 0.1, 0.2)
]


def _column_stacked(topo):
    t0 = time.perf_counter()
    results = run_replication_stack(
        topo, [(spec, 0, REPS) for spec in _COLUMN_SPECS]
    )
    return results, time.perf_counter() - t0


def _column_per_cell(topo):
    t0 = time.perf_counter()
    results = [run_replication_chunk(topo, spec, 0, REPS)
               for spec in _COLUMN_SPECS]
    return results, time.perf_counter() - t0


def test_bench_column_stacking(best_of, bench_journal, bench_record):
    topo = get_trace("smoke")
    stacked, stacked_s = best_of(lambda: _column_stacked(topo), rounds=5)
    per_cell, cell_s = best_of(lambda: _column_per_cell(topo), rounds=5)

    # Stacking is execution policy: each cell extracted from the stack
    # must equal its standalone batched chunk bit for bit.
    for cell_a, cell_b in zip(per_cell, stacked):
        assert ([pickle.dumps(r) for r in cell_a]
                == [pickle.dumps(r) for r in cell_b])

    total_reps = len(_COLUMN_SPECS) * REPS
    slots = sum(r.metrics.elapsed_slots for cell in stacked for r in cell)
    stacked_rate = total_reps / stacked_s
    ratio = cell_s / stacked_s
    record = bench_record("fig10-column", stacked_s, slots,
                          fast_forward=True, rounds=5)
    record.update({
        "n_replications": REPS,
        "grid_cells": len(_COLUMN_SPECS),
        "reps_per_sec": round(stacked_rate, 1),
        "per_cell_wallclock_s": round(cell_s, 4),
        "ratio_vs_per_cell": round(ratio, 2),
        "note": "whole duty column as one engine invocation",
    })
    bench_journal["fig10-column/stacked"] = record
    print(f"\nfig10 column (3 duties, R={REPS}): stacked "
          f"{stacked_rate:.1f} reps/sec, per-cell ratio {ratio:.2f}x")
    # The win is task-count collapse (3 engine invocations -> 1) and
    # shared per-slot dispatch; the wider stack also mixes periods, so
    # the guard only excludes pathological slowdowns.
    assert ratio >= 0.5


def test_bench_phase_profile(once, bench_journal):
    """Journal the per-phase wall/allocation split of the fig10 grid.

    Runs the same grid as ``test_bench_replications_per_sec`` once with
    a :class:`PhaseProfiler` attached (after a warm pass, so caches are
    primed) and records the report under ``fig10-reps/profile``. One
    structural assertion rides along: per-slot net live-block growth
    stays bounded by the deferred counter accumulators (a handful of
    retained index arrays per executed slot), not unbounded temporaries.
    """
    from repro.sim.observers import PhaseProfiler

    topo = get_trace("smoke")
    for spec in _REP_SPECS:  # warm pass: prime caches
        run_replication_chunk(topo, spec, 0, REPS)
    profiler = PhaseProfiler()

    def profiled_pass():
        for spec in _REP_SPECS:
            run_replication_chunk(topo, spec, 0, REPS, profiler=profiler)

    once(profiled_pass)
    report = profiler.report()
    report["scenario"] = "fig10-reps"
    report["n_replications"] = REPS
    bench_journal["fig10-reps/profile"] = report
    top = next(iter(report["phases"]))
    print(f"\nfig10 phase profile: {report['loop_slots']} loop slots, "
          f"top phase {top} ({report['phases'][top]['share']:.0%}), "
          f"{report.get('net_alloc_blocks_per_slot', 0)} net blocks/slot")
    assert report.get("net_alloc_blocks_per_slot", 0.0) < 50
