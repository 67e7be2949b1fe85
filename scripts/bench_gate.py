#!/usr/bin/env python3
"""Perf-regression gate over the core hot-path benchmarks.

Reads the pinned baseline (BENCH_core.json at the repo root) and the bench
result files produced by scripts/ci_bench.sh, writes a merged
BENCH_core.json artifact with the current rates next to the pinned ones,
and exits non-zero if any gated throughput falls below
floor_fraction * baseline (default 0.7, i.e. a >30% regression).

A result file with a "benchmarks" array is google-benchmark output
(micro_core): it contributes "<run_name>_items_per_s", the median over
repetitions. Any other result file is one flat JSON object printed through
bench/report.hpp, whose pinned values carry their BENCH_core.json names.
Each pinned name must be found in exactly one result file; a name found in
none or in two fails the gate. Names no pin mentions are ignored.

Rates are throughputs (items/s, events/s, samples/s): bigger is better, so
the gate is one-sided — a faster run never fails, it just shows up in the
artifact as an improvement to consider re-pinning.

Usage:
  bench_gate.py --baseline BENCH_core.json --out artifact.json RESULT...

Re-pin mode (deliberate baseline updates only):
  bench_gate.py ... --repin --repin-out BENCH_core.json \
      --require store_synth_samples_per_s=1.8 \
      --require 'BM_MonsoonCaptureSynthesis/10_items_per_s=1.8' \
      --note 'why the baseline moved'

--repin refuses to write a new baseline unless every --require metric
improved by at least its stated factor over the old pin. A re-pin that
cannot demonstrate its claimed win is a no-op with a non-zero exit: the
point of the pin is that it only ever moves on purpose, with the
justification recorded in the artifact's note. Only the --require metrics
move: each takes this run's reading as its baseline and keeps its old pin as
pre_pr. Every other pin stays as it was, since one run on a loaded host can
read well below pins it never meant to touch.
"""

import argparse
import datetime
import json
import sys


def result_values(result):
    """One result file's JSON -> {name: value}, by the rule above."""
    if not isinstance(result.get("benchmarks"), list):
        return result
    out = {}
    for entry in result["benchmarks"]:
        # Benches that never call SetItemsProcessed carry no items_per_second
        # and are not part of the gate.
        if "items_per_second" not in entry:
            continue
        # With --benchmark_report_aggregates_only the run_name field holds
        # the plain bench name and aggregate_name tags mean/median/stddev.
        if entry.get("aggregate_name") == "median":
            out[f"{entry['run_name']}_items_per_s"] = entry["items_per_second"]
        elif "aggregate_name" not in entry:
            # Repetition-less runs: single entry per bench, no aggregates.
            out[f"{entry['name']}_items_per_s"] = entry["items_per_second"]
    return out


def collect_current(names, paths):
    """Finds each of `names` in exactly one result file.

    Returns ({name: value}, failures): a name found in no file or in more
    than one is a failure, by name.
    """
    found = {name: [] for name in names}
    for path in paths:
        with open(path) as f:
            values = result_values(json.load(f))
        for name, hits in found.items():
            if name in values:
                hits.append((path, values[name]))
    current = {}
    failures = []
    for name, hits in sorted(found.items()):
        if len(hits) == 1:
            current[name] = hits[0][1]
        elif not hits:
            failures.append(f"{name}: no measurement produced")
        else:
            paths_found = ", ".join(path for path, _ in hits)
            failures.append(f"{name}: found in {len(hits)} result files "
                            f"({paths_found})")
    return current, failures


def parse_requirement(spec):
    """'metric_name=1.8' -> (metric_name, 1.8), with loud failures."""
    name, sep, factor = spec.rpartition("=")
    if not sep or not name:
        raise SystemExit(f"--require expects NAME=FACTOR, got {spec!r}")
    try:
        value = float(factor)
    except ValueError:
        raise SystemExit(f"--require factor must be numeric, got {spec!r}")
    if value <= 1.0:
        raise SystemExit(
            f"--require factor must exceed 1.0 (a re-pin must improve "
            f"something), got {spec!r}"
        )
    return name, value


def repin_baseline(baseline, current, requirements, note):
    """Build the replacement baseline, or return (None, failures).

    Moves only the required metrics; every other entry is kept as it is.
    """
    failures = []
    for name, factor in requirements:
        pinned = baseline["metrics"].get(name)
        if pinned is None:
            failures.append(f"{name}: not a pinned metric")
            continue
        got = current.get(name)
        if got is None:
            failures.append(f"{name}: no measurement produced")
            continue
        ratio = got / pinned["baseline"]
        if ratio < factor:
            failures.append(
                f"{name}: {got:.3e} is only {ratio:.2f}x of the pinned "
                f"{pinned['baseline']:.3e}; re-pin requires >= {factor:.2f}x"
            )
    if failures:
        return None, failures
    metrics = dict(baseline["metrics"])
    for name, _ in requirements:
        # Keep three significant figures: the pin documents a magnitude on a
        # reference machine, not a nanosecond-exact number.
        pinned = baseline["metrics"][name]
        metrics[name] = dict(
            pinned,
            baseline=float(f"{current[name]:.3g}"),
            pre_pr=pinned["baseline"],
        )
    new_baseline = dict(baseline)
    new_baseline["metrics"] = metrics
    new_baseline["pinned_date"] = datetime.date.today().isoformat()
    if note is not None:
        new_baseline["note"] = note
    return new_baseline, []


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "results",
        nargs="+",
        metavar="RESULT",
        help="bench result file: google-benchmark JSON or one flat object",
    )
    parser.add_argument(
        "--repin",
        action="store_true",
        help="re-pin the --require metrics from this run's measurements",
    )
    parser.add_argument(
        "--repin-out",
        help="path for the new baseline (default: overwrite --baseline)",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME=FACTOR",
        help="re-pin only if NAME improved by >= FACTOR over the old pin "
        "(repeatable; at least one is mandatory with --repin)",
    )
    parser.add_argument(
        "--note",
        help="replacement note recording why the baseline moved",
    )
    args = parser.parse_args()
    if args.repin and not args.require:
        parser.error(
            "--repin needs at least one --require NAME=FACTOR: a baseline "
            "update must state the improvement that justifies it"
        )

    with open(args.baseline) as f:
        baseline = json.load(f)

    floor = baseline.get("floor_fraction", 0.7)
    current, failures = collect_current(baseline["metrics"], args.results)

    report = []
    for name, pinned in sorted(baseline["metrics"].items()):
        pinned_rate = pinned["baseline"]
        got = current.get(name)
        if got is None:
            continue
        ratio = got / pinned_rate
        status = "ok" if ratio >= floor else "REGRESSION"
        report.append((name, pinned_rate, got, ratio, status))
        if ratio < floor:
            failures.append(
                f"{name}: {got:.3e} is {ratio:.2f}x of the pinned "
                f"{pinned_rate:.3e} (floor {floor:.2f}x)"
            )

    width = max(len(r[0]) for r in report) if report else 0
    for name, pinned_rate, got, ratio, status in report:
        print(
            f"{name:<{width}}  pinned {pinned_rate:>11.3e}/s  "
            f"now {got:>11.3e}/s  {ratio:5.2f}x  {status}"
        )

    artifact = {
        "schema": baseline.get("schema", "blab-bench-core-v1"),
        "floor_fraction": floor,
        "note": baseline.get("note", ""),
        "metrics": {
            name: dict(pinned, current=current.get(name))
            for name, pinned in baseline["metrics"].items()
        },
    }
    with open(args.out, "w") as f:
        json.dump(artifact, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed: all rates >= {floor:.2f}x of baseline")

    if args.repin:
        requirements = [parse_requirement(spec) for spec in args.require]
        new_baseline, repin_failures = repin_baseline(
            baseline, current, requirements, args.note
        )
        if repin_failures:
            print("\nre-pin REFUSED (baseline left untouched):",
                  file=sys.stderr)
            for failure in repin_failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        repin_out = args.repin_out or args.baseline
        with open(repin_out, "w") as f:
            json.dump(new_baseline, f, indent=2)
            f.write("\n")
        print(f"\nre-pinned baseline -> {repin_out}")
        for name, factor in requirements:
            old = baseline["metrics"][name]["baseline"]
            print(
                f"  {name}: {old:.3e} -> {current[name]:.3e} "
                f"({current[name] / old:.2f}x, required {factor:.2f}x)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
