"""Tiny-scale self-test of the benchmark itself (``run.py --self-test``).

Checks that:

* ``BENCHMARK.json`` mirrors ``catalog.py`` (names, units, directions,
  bounds, workloads and their reasons);
* every end-to-end and per-layer metric is emitted with its unit on
  every workload;
* span self times are >= 0 and enclosed spans never outlast their
  parent, in every traced invocation;
* layers that do not run on a workload read 0 there;
* a tampered pinned digest row trips ``cells_failed_frac`` and the
  command's exit status.
"""

from __future__ import annotations

import contextlib
import io
import json

import catalog
import harness
import run

#: Replications per cell at self-test scale.
TINY_REPS = {"fig10-grid": 2, "fig9-probe": 1, "mac-duty": 2}

#: Metric-name prefixes that must read 0 on a workload: the batched
#: engine and its arena never run on fig9-probe, the serial engine never
#: runs on fig10-grid.
IDLE = {
    "fig9-probe": ("sim.batch.", "sim.arena."),
    "fig10-grid": ("sim.engine.",),
}


def _benchmark_mirrors_catalog(problems):
    bench = json.loads((harness.ROOT / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
    workloads = [{"name": name, "why": spec["why"]}
                 for name, spec in catalog.WORKLOADS.items()]
    end_to_end = [{"name": n, "unit": u, "better": b, "bound": bound}
                  for n, u, b, bound, _ in catalog.END_TO_END]
    per_layer = [{"name": n, "unit": u, "better": b}
                 for n, u, b, *_ in catalog.PER_LAYER]
    for key, expected in (("workloads", workloads),
                          ("end_to_end", end_to_end),
                          ("per_layer", per_layer)):
        if bench.get(key) != expected:
            problems.append(f"BENCHMARK.json {key} differs from catalog.py")


def _metrics_complete(workload, result, table, problems):
    expected = {name: unit for name, unit, *_ in table}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        wrong = sorted(n for n in got if expected.get(n) != got[n])
        problems.append(f"{workload}: metrics missing {missing}, "
                        f"unexpected or mis-united {wrong}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{workload}: {result['failed']} failed cell(s), "
                        f"errors {result['record']['errors']}")


def _spans_consistent(workload, result, problems):
    traced = [rec for cfg, rec, _ in result["invocations"]
              if rec is not None and cfg["trace"]]
    if not traced:
        problems.append(f"{workload}: no traced invocation completed")
    for rec in traced:
        if rec["violations"]:
            problems.append(f"{workload}: {rec['violations']} span(s) "
                            f"shorter than their child spans")
        negative = [n for n, s in rec["spans"].items() if s["self_s"] < 0]
        if negative:
            problems.append(f"{workload}: negative self time in {negative}")
    for prefix in IDLE.get(workload, ()):
        nonzero = [n for n, m in result["metrics"].items()
                   if n.startswith(prefix) and m["value"] != 0]
        if nonzero:
            problems.append(f"{workload}: idle layer reads non-zero "
                            f"{nonzero}")


def _tampered_pin_fails(problems):
    workload = "mac-duty"
    reps = TINY_REPS[workload]
    seed = catalog.DEFAULT_SEED
    good = harness.measure(workload, seed, 0, False, reps=reps,
                           min_rounds=1)
    rows = good["invocations"][0][1]["rows"]
    tampered = [dict(row) for row in rows]
    tampered[0]["mean_delay"] = (tampered[0]["mean_delay"] or 0) + 1.0
    for pins, want_status in ((rows, 0), (tampered, 1)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run.execute(workload, seed, 0, False, reps=reps,
                                 pins=pins)
        lines = out.getvalue().strip().splitlines()
        result = json.loads(lines[-1])
        frac_line = next(line for line in lines
                         if line.split()[:1] == [catalog.FAILED_FRAC[0]])
        frac = float(frac_line.split()[1])
        if status != want_status or (frac > 0) != bool(want_status) \
                or (result["failed"] > 0) != bool(want_status):
            problems.append(
                f"{'tampered' if want_status else 'true'} pins: exit "
                f"{status}, {result['failed']} failed cell(s), "
                f"cells_failed_frac {frac}")


def main() -> int:
    problems = []
    _benchmark_mirrors_catalog(problems)
    for workload, reps in TINY_REPS.items():
        plain = harness.measure(workload, catalog.DEFAULT_SEED, 0, False,
                                reps=reps, min_rounds=1)
        _metrics_complete(workload, plain, catalog.END_TO_END, problems)
        traced = harness.measure(workload, catalog.DEFAULT_SEED, 0, True,
                                 reps=reps)
        _metrics_complete(workload, traced, catalog.PER_LAYER, problems)
        _spans_consistent(workload, traced, problems)
        print(f"{workload}: checked", flush=True)
    _tampered_pin_fails(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
