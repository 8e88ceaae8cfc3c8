"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show all registered experiments.
``run EXPERIMENT [--scale SCALE] [--jobs N] [--cache-dir PATH] [--no-sparklines]``
    Run one experiment and render it as text. ``--jobs N`` fans the
    replications/sweep grid over ``N`` warm worker processes
    (bit-identical to serial) and reports an ``[exec]`` dispatch-stats
    line — tasks, chunks, pickled vs shared-memory bytes, pool spin-up,
    per-task wall-time spread, replication-batch widths — on stderr;
    ``--cache-dir`` persists result summaries so a repeated invocation
    is answered from the cache; ``--reps-per-task R`` runs R
    replications as one task — one ``(R, ...)`` engine call (auto by
    default).
``run-scenario FILE.json [--shard I/K] [--jobs N] [--cache-dir PATH] [--summary PATH]``
    Run a declarative scenario file — a serialized
    :class:`repro.scenario.ScenarioGrid` (or a bare scenario object) —
    through the same executor/store stack as ``run``. New workloads ship
    as data files instead of Python. ``--summary PATH`` writes a
    deterministic JSON digest of every cell (axes, scenario fingerprint,
    delay/failure metrics) for expectation diffing in CI. ``--shard
    I/K`` (0-based) executes one deterministic shard of the grid —
    shard ``I`` of ``K`` — so k invocations with separate
    ``--cache-dir``\\ s, on any mix of hosts, cover the grid exactly
    once; ``repro store merge`` unions the caches back together.
``report GRID.json --cache-dir PATH [--summary PATH]``
    Render a grid purely from stored results — no simulation, no
    executor. The reporting half of a sharded run: after merging shard
    caches, ``report`` produces the digest the unsharded run would
    have. Exits 2 naming the missing cells if any shard hasn't run,
    and naming the path if ``--cache-dir`` is not a directory.
``store merge --into DEST SRC [SRC ...]`` / ``store verify DIR`` / ``store gc DIR``
    Maintain result-store directories: ``merge`` unions shard caches
    (re-verifying digests; refusing engine-version or grid-fingerprint
    conflicts), ``verify`` classifies every entry (ok / stale /
    truncated / corrupt / misplaced), ``gc`` deletes damaged entries
    and orphaned temp files (``--stale`` also drops old-engine ones).
``scenario validate FILE.json`` / ``scenario show FILE.json`` / ``scenario shard FILE.json K``
    Validate a scenario file (helpful errors name the closest valid
    field), print its normalized form — defaults materialized, cell
    count and fingerprints included — or split it into K self-contained
    shard files stamped with the full-grid fingerprint.
``profile FILE.json [--json PATH] [--no-allocs] [--reps R]``
    Per-phase wall-time and allocation profile of a scenario file's
    engine runs: runs every cell through
    :class:`repro.sim.observers.PhaseProfiler`, prints the executed
    replication-slots (and how many proposed nothing, which a loose
    fast-forward frontier inflates), the phase table
    (inject/propose/validate/resolve/apply/observe/fastforward, the
    nested ``mac`` sub-phase, and ``probe`` for Fig. 9 probe floods)
    and the per-slot net allocation-block and traced-peak-byte rates,
    measured after one warm pass. ``--json PATH`` writes the raw report
    for CI artifacts; ``--no-allocs`` skips the tracemalloc pass.
``trace [--seed N] [--out PATH]``
    Synthesize the GreenOrbs-like trace, print its statistics, optionally
    save it as ``.npz``.
``recommend [--seed N]``
    Print the gain-maximizing duty-cycle configuration for the trace.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """Argparse type for counts: an integer >= 1, checked before any work."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Understanding the Flooding in Low-Duty-Cycle "
            "Wireless Sensor Networks' (ICPP 2011)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    def add_exec_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=_positive_int, default=None, metavar="N",
            help="worker processes for simulation tasks (default: serial; "
                 "results are bit-identical across backends; prints an "
                 "[exec] dispatch-stats line on stderr)",
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="PATH",
            help="persist result summaries here; repeated invocations "
                 "with the same spec/topology/engine skip simulation",
        )
        p.add_argument(
            "--reps-per-task", type=_positive_int, default=None, metavar="R",
            help="replications per dispatched task, run as one (R, ...) "
                 "engine call (default: auto, up to 128; 1 restores "
                 "per-replication dispatch; results are bit-identical at "
                 "any width)",
        )

    run = sub.add_parser("run", help="run one experiment and render it")
    run.add_argument("experiment", help="experiment id (e.g. fig10)")
    run.add_argument("--scale", default="bench",
                     choices=("smoke", "bench", "full"))
    run.add_argument("--no-sparklines", action="store_true")
    add_exec_flags(run)

    runs = sub.add_parser(
        "run-scenario",
        help="run a declarative scenario file (JSON grid of scenarios)",
    )
    runs.add_argument("file", help="scenario file (see repro.scenario)")
    runs.add_argument("--summary", default=None, metavar="PATH",
                      help="write a deterministic JSON digest of every "
                           "cell (for expectation diffing)")
    runs.add_argument("--shard", default=None, metavar="I/K",
                      help="execute one deterministic shard of the grid "
                           "(0-based: shard I of K); run all K shards "
                           "into separate --cache-dirs, then `repro "
                           "store merge` them")
    add_exec_flags(runs)

    rep = sub.add_parser(
        "report",
        help="render a grid purely from stored results (no simulation)",
    )
    rep.add_argument("file", help="scenario file (see repro.scenario)")
    rep.add_argument("--cache-dir", required=True, metavar="PATH",
                     help="result store holding the grid's entries "
                          "(e.g. the destination of `repro store merge`)")
    rep.add_argument("--summary", default=None, metavar="PATH",
                     help="write the deterministic JSON digest (same "
                          "format as run-scenario --summary)")

    scen = sub.add_parser("scenario", help="inspect scenario files")
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    scen_sub.add_parser("validate", help="check a scenario file") \
        .add_argument("file")
    scen_sub.add_parser("show", help="print the normalized grid") \
        .add_argument("file")
    shard = scen_sub.add_parser(
        "shard", help="split a grid file into K self-contained shard files"
    )
    shard.add_argument("file")
    shard.add_argument("count", type=_positive_int, metavar="K")
    shard.add_argument("--out-dir", default=None, metavar="DIR",
                       help="where to write the shard files (default: "
                            "next to the input)")

    store = sub.add_parser("store", help="maintain result-store directories")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    merge = store_sub.add_parser(
        "merge", help="union shard stores into one directory"
    )
    merge.add_argument("sources", nargs="+", metavar="SRC",
                       help="source store directories")
    merge.add_argument("--into", required=True, metavar="DEST",
                       help="destination store directory (created if absent)")
    merge.add_argument("--allow-mixed", action="store_true",
                       help="permit merging stores whose manifests name "
                            "disjoint grids (pooling unrelated caches)")
    verify = store_sub.add_parser(
        "verify", help="classify every entry (ok/stale/truncated/...)"
    )
    verify.add_argument("dir", metavar="DIR")
    gc = store_sub.add_parser(
        "gc", help="delete damaged entries and orphaned temp files"
    )
    gc.add_argument("dir", metavar="DIR")
    gc.add_argument("--stale", action="store_true",
                    help="also drop intact entries from older engine "
                         "versions")

    prof = sub.add_parser(
        "profile",
        help="per-phase wall-time and allocation profile of a "
             "scenario file's engine runs",
    )
    prof.add_argument("file", help="scenario file (every cell is profiled)")
    prof.add_argument("--json", default=None, metavar="PATH",
                      help="write the profile report as JSON")
    prof.add_argument("--no-allocs", action="store_true",
                      help="skip the tracemalloc allocation pass")
    prof.add_argument("--reps", type=_positive_int, default=None, metavar="R",
                      help="override n_replications for the profiled run")

    trace = sub.add_parser("trace", help="synthesize the GreenOrbs trace")
    trace.add_argument("--seed", type=int, default=2011)
    trace.add_argument("--out", default=None, help="save as .npz")

    rec = sub.add_parser("recommend",
                         help="gain-maximizing duty cycle for the trace")
    rec.add_argument("--seed", type=int, default=2011)

    aud = sub.add_parser(
        "audit",
        help="run experiments and check every paper shape claim",
    )
    aud.add_argument("--scale", default="bench",
                     choices=("smoke", "bench", "full"))
    aud.add_argument("experiments", nargs="*",
                     help="experiment ids to audit (default: all with checks)")
    add_exec_flags(aud)

    return parser


def _report_cache(args: argparse.Namespace) -> None:
    """One log line proving whether the store answered from cache."""
    if getattr(args, "cache_dir", None) is None:
        return
    from .exec import execution_context

    store = execution_context().store
    print(f"[cache] {store.stats} -> {args.cache_dir}", file=sys.stderr)


def _report_exec(args: argparse.Namespace) -> None:
    """Dispatch observability: what the execution layer actually moved."""
    if (getattr(args, "jobs", None) is None
            and getattr(args, "reps_per_task", None) is None):
        return
    from .exec import execution_context

    executor = execution_context().executor
    if executor.stats.dispatches:
        print(f"[exec] {executor!r}: {executor.stats}", file=sys.stderr)


def _cmd_list() -> int:
    from .experiments import experiment_ids

    for eid in experiment_ids():
        print(eid)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .analysis import render_result
    from .exec import use_execution
    from .experiments import run_experiment_by_id

    try:
        with use_execution(jobs=args.jobs, cache_dir=args.cache_dir,
                           reps_per_task=args.reps_per_task):
            try:
                result = run_experiment_by_id(args.experiment, scale=args.scale)
            except KeyError as exc:
                print(exc, file=sys.stderr)
                return 2
            _report_cache(args)
            _report_exec(args)
    except NotADirectoryError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(render_result(result, with_sparklines=not args.no_sparklines))
    return 0


def _parse_shard(text: str):
    """``"I/K"`` → ``(index, count)``, 0-based, with a helpful error."""
    try:
        index_s, count_s = text.split("/", 1)
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise ValueError(
            f"--shard expects I/K (e.g. 0/2 for the first of two shards), "
            f"got {text!r}"
        ) from None
    return index, count


def _print_digest(grid, digest) -> None:
    name = grid.name or "scenario"
    shard = f" [shard {grid.sharding[0]}/{grid.sharding[1]}]" \
        if grid.sharding else ""
    print(f"{name}{shard}: {digest['n_cells']} cell(s)")
    for cell in digest["cells"]:
        axes = ", ".join(f"{k}={v}" for k, v in cell["axes"].items()) or "-"
        print(f"  [{axes}] delay={cell['mean_delay']} "
              f"completion={cell['completion_rate']} "
              f"failures={cell['mean_failures']}")


def _write_summary(digest, path: str) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"summary -> {path}")


def _stamp_manifest(grid, cache_dir) -> None:
    """Record grid provenance in the cache dir (merge's conflict guard)."""
    from .exec import update_manifest

    label = f"{grid.sharding[0]}/{grid.sharding[1]}" if grid.sharding \
        else "full"
    update_manifest(cache_dir, grid.grid_fingerprint(),
                    name=grid.name, shard_label=label)


def _cmd_run_scenario(args: argparse.Namespace) -> int:
    from .analysis.report import grid_digest
    from .exec import execution_context, use_execution
    from .scenario import ScenarioError, load_scenario_file
    from .sim.runner import run_scenarios

    try:
        grid = load_scenario_file(args.file)
        if args.shard is not None:
            index, count = _parse_shard(args.shard)
            grid = grid.shard(index, count)
    except (OSError, ValueError, ScenarioError) as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        with use_execution(jobs=args.jobs, cache_dir=args.cache_dir,
                           reps_per_task=args.reps_per_task):
            ctx = execution_context()
            summaries = run_scenarios(grid.scenarios(),
                                      executor=ctx.executor, store=ctx.store,
                                      reps_per_task=ctx.reps_per_task)
            _report_cache(args)
            _report_exec(args)
    except (NotADirectoryError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.cache_dir is not None:
        _stamp_manifest(grid, args.cache_dir)
    digest = grid_digest(grid, summaries)
    _print_digest(grid, digest)
    if args.summary:
        _write_summary(digest, args.summary)
    return 0


def _existing_dir(path: str) -> bool:
    """Whether ``path`` is a directory; names it on stderr when not."""
    from pathlib import Path

    if Path(path).is_dir():
        return True
    print(f"{path}: not a directory", file=sys.stderr)
    return False


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import grid_digest
    from .exec import ResultStore
    from .scenario import ScenarioError, load_scenario_file
    from .sim.runner import MissingResults, load_scenario_summaries

    # A mistyped store path would otherwise read as "every shard missing".
    if not _existing_dir(args.cache_dir):
        return 2
    try:
        grid = load_scenario_file(args.file)
    except (OSError, ScenarioError) as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        store = ResultStore(args.cache_dir)
        summaries = load_scenario_summaries(grid.scenarios(), store)
    except (ValueError, MissingResults) as exc:
        print(exc, file=sys.stderr)
        return 2
    digest = grid_digest(grid, summaries)
    _print_digest(grid, digest)
    if args.summary:
        _write_summary(digest, args.summary)
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .scenario import ScenarioError, load_scenario_file

    try:
        grid = load_scenario_file(args.file)
    except (OSError, ScenarioError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 2
    if args.scenario_command == "shard":
        return _cmd_scenario_shard(args, grid)
    if args.scenario_command == "show":
        print(grid.to_json(indent=2))
    name = grid.name or "scenario"
    print(f"OK: {name} — {len(grid)} cell(s), "
          f"{len(grid.axes)} axis/axes, grid fingerprint "
          f"{grid.fingerprint()[:16]}")
    for scenario in grid.scenarios():
        print(f"  {scenario.protocol} duty={scenario.duty_ratio:g} "
              f"M={scenario.n_packets} -> {scenario.fingerprint()[:16]}")
    return 0


def _cmd_scenario_shard(args: argparse.Namespace, grid) -> int:
    from pathlib import Path

    from .scenario import ScenarioError

    src = Path(args.file)
    out_dir = Path(args.out_dir) if args.out_dir else src.parent
    try:
        shards = grid.shards(args.count)
    except (ValueError, ScenarioError) as exc:
        print(exc, file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = src.name[:-len(".json")] if src.name.endswith(".json") \
        else src.name
    for shard in shards:
        index, count = shard.sharding
        path = out_dir / f"{stem}.shard{index}of{count}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(shard.to_json(indent=2))
            fh.write("\n")
        print(f"{path}: {len(shard)} cell(s)")
    print(f"grid fingerprint {grid.grid_fingerprint()[:16]} "
          f"stamped into {args.count} shard file(s)")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .exec import MergeError, gc_store, merge_store, verify_store

    if args.store_command == "merge":
        try:
            report = merge_store(args.into, args.sources,
                                 allow_mixed=args.allow_mixed)
        except (MergeError, ValueError, OSError) as exc:
            print(exc, file=sys.stderr)
            return 2
        print(f"{args.into}: {report}")
        return 0
    if not _existing_dir(args.dir):
        return 2
    if args.store_command == "verify":
        report = verify_store(args.dir)
        print(f"{args.dir}: {report}")
        for entry in report.problems:
            print(f"  {entry.status:<10} {entry.name}  {entry.detail}")
        for name in report.tmp_files:
            print(f"  tmp        {name}  orphaned temp file")
        return 0 if not report.problems else 1
    if args.store_command == "gc":
        report = gc_store(args.dir, stale=args.stale)
        print(f"{args.dir}: {report}")
        for name in report.removed:
            print(f"  removed {name}")
        return 0
    raise AssertionError(
        f"unhandled store command {args.store_command!r}"
    )  # pragma: no cover


def _cmd_profile(args: argparse.Namespace) -> int:
    import json
    import tracemalloc

    from .scenario import ScenarioError, build_topology, load_scenario_file
    from .sim.observers import PhaseProfiler
    from .sim.runner import run_replication_chunk

    try:
        grid = load_scenario_file(args.file)
        scenarios = grid.scenarios()
    except (OSError, ValueError, ScenarioError) as exc:
        print(exc, file=sys.stderr)
        return 2
    cells = []
    for s in scenarios:
        if s.topology is None:
            print(f"scenario {s.fingerprint()[:16]} names no topology",
                  file=sys.stderr)
            return 2
        n = args.reps if args.reps is not None else s.n_replications
        cells.append((build_topology(s.topology), s, int(n)))

    def run_all(profiler=None):
        for topo, s, n in cells:
            run_replication_chunk(topo, s, 0, n, profiler=profiler)

    run_all()  # warm pass: caches primed
    profiler = PhaseProfiler()
    run_all(profiler)
    report = profiler.report()
    if not args.no_allocs:
        tracemalloc.start()
        alloc_prof = PhaseProfiler()
        run_all(alloc_prof)
        tracemalloc.stop()
        alloc = alloc_prof.report()
        report["net_alloc_blocks_per_slot"] = alloc.get(
            "net_alloc_blocks_per_slot", 0.0)
        report["peak_alloc_bytes_per_slot"] = alloc.get(
            "peak_alloc_bytes_per_slot", 0.0)

    print(f"{len(cells)} cell(s), {report['loop_slots']} loop slots, "
          f"{report['slots']} replication-slots "
          f"({report['idle_slots']} idle)")
    print(f"{'phase':<12} {'seconds':>9} {'share':>7} {'calls':>8}")
    for name, row in report["phases"].items():
        print(f"{name:<12} {row['seconds']:>9.4f} "
              f"{100 * row['share']:>6.1f}% {row['calls']:>8}")
    print(f"{'total':<12} {report['total_seconds']:>9.4f}")
    if "net_alloc_blocks_per_slot" in report:
        line = (f"steady-state allocations/slot: "
                f"{report['net_alloc_blocks_per_slot']} net blocks")
        if "peak_alloc_bytes_per_slot" in report and not args.no_allocs:
            line += f", {report['peak_alloc_bytes_per_slot']} peak bytes"
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .net.trace import save_trace, synthesize_greenorbs, trace_statistics

    topo = synthesize_greenorbs(seed=args.seed)
    for key, val in trace_statistics(topo).items():
        print(f"{key:<16} {val:.3f}" if isinstance(val, float) else
              f"{key:<16} {val}")
    if args.out:
        save_trace(topo, args.out)
        print(f"saved -> {args.out}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from .net.trace import synthesize_greenorbs
    from .protocols.crosslayer import recommended_configuration

    topo = synthesize_greenorbs(seed=args.seed)
    best = recommended_configuration(topo)
    print(f"effective k-class : {topo.mean_k_class():.3f}")
    print(f"optimal duty cycle: {best.duty_ratio:.2%} (period T={best.period})")
    print(f"predicted delay   : {best.delay:.0f} slots/packet")
    print(f"lifetime          : {best.lifetime:.3e} slots")
    print(f"networking gain   : {best.gain:.4f}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .analysis.shapes import CHECKS, audit
    from .exec import use_execution
    from .experiments import run_experiment_by_id

    ids = args.experiments or sorted(CHECKS)
    unknown = [eid for eid in ids if eid not in CHECKS]
    if unknown:
        print(f"no shape checks for: {unknown}", file=sys.stderr)
        return 2
    results = {}
    try:
        with use_execution(jobs=args.jobs, cache_dir=args.cache_dir,
                           reps_per_task=args.reps_per_task):
            for eid in ids:
                print(f"running {eid} at scale {args.scale} ...", flush=True)
                results[eid] = run_experiment_by_id(eid, scale=args.scale)
            _report_cache(args)
            _report_exec(args)
    except NotADirectoryError as exc:
        print(exc, file=sys.stderr)
        return 2
    checks = audit(results)
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        failed += not check.passed
        detail = f"  ({check.detail})" if check.detail else ""
        print(f"[{status}] {check.experiment_id}: {check.claim}{detail}")
    print(f"\n{len(checks) - failed}/{len(checks)} shape claims hold")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "run-scenario":
        return _cmd_run_scenario(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "recommend":
        return _cmd_recommend(args)
    if args.command == "audit":
        return _cmd_audit(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
