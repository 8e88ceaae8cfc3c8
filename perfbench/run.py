"""Repository benchmark: paper-shaped grids run the way the CLI runs them.

    python3 perfbench/run.py --workload fig10-grid --seed 2011 \\
        --seconds 35 --trace 0

runs one workload for ``--seconds`` as a closed loop of CLI-shaped
invocations, checks every invocation's digest, prints each metric by
name and unit plus a provenance record, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from a traced
run (see ``catalog.py``). Exits 1 when any cell fails its check, 2 when
the package source is missing.

    python3 perfbench/run.py --self-test     # tiny-scale check of all this
    python3 perfbench/run.py --write-pins    # re-pin the default-seed rows
"""

from __future__ import annotations

import argparse
import json
import sys

import catalog
import harness


def _print_result(result) -> None:
    rec = result["record"]
    print(f"{rec['workload']} seed={rec['seed']} reps/cell="
          f"{rec['reps_per_cell']} jobs={rec['jobs']} "
          f"invocations={rec['invocations']} "
          f"pinned={'yes' if rec['pinned'] else 'no'}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    name, unit = catalog.FAILED_FRAC
    print(f"  {name:<36} {rec[name]:>14.6g} {unit}")
    for err in rec["errors"]:
        print(f"  error: {err}", file=sys.stderr)
    print("record " + json.dumps(rec, sort_keys=True))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def execute(workload, seed, seconds, trace, reps=None, pins=None) -> int:
    """Measure, print the result, and return the exit status.

    ``pins`` (digest rows) default to the committed ones for
    ``(workload, seed, reps)``, if any.
    """
    if reps is None:
        reps = catalog.WORKLOADS[workload]["reps"]
    if pins is None:
        pins = harness.load_pins(workload, seed, reps)
    result = harness.measure(workload, seed, seconds, trace, reps=reps,
                             pins=pins)
    _print_result(result)
    return 0 if result["correct"] else 1


def _write_pins() -> int:
    pins = {}
    for workload, spec in catalog.WORKLOADS.items():
        result = harness.measure(workload, catalog.DEFAULT_SEED, 0, False,
                                 min_rounds=1)
        if not result["correct"]:
            print(f"{workload}: {result['record']['errors']}",
                  file=sys.stderr)
            return 1
        _, rec, _ = result["invocations"][0]
        pins[workload] = {"seed": catalog.DEFAULT_SEED, "reps": spec["reps"],
                          "engine": rec["engine"], "rows": rec["rows"]}
    harness.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"pinned {len(pins)} workload(s) -> {harness.PINS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    if not harness.source_present():
        print(f"package source not found under {harness.SRC}",
              file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()
    if args.write_pins:
        return _write_pins()
    if args.workload is None:
        parser.error("--workload is required")
    return execute(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
