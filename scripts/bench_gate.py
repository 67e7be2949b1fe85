#!/usr/bin/env python3
"""Perf-regression gate over the core hot-path benchmarks.

Reads the pinned baseline (BENCH_core.json at the repo root), the fresh
measurement JSONs produced by scripts/ci_bench.sh (google-benchmark output
from micro_core, plus the scenario_e2e, store_throughput, store_persist and
flame_aggregate emitters), writes
a merged BENCH_core.json artifact with the current rates next to the pinned
ones, and exits non-zero if any gated throughput falls below
floor_fraction * baseline (default 0.7, i.e. a >30% regression).

Rates are throughputs (items/s, events/s, samples/s): bigger is better, so
the gate is one-sided — a faster run never fails, it just shows up in the
artifact as an improvement to consider re-pinning.

Usage:
  bench_gate.py --baseline BENCH_core.json --micro micro.json \
      --e2e e2e.json --store store.json --persist persist.json \
      --flame flame.json --out artifact.json

Re-pin mode (deliberate baseline updates only):
  bench_gate.py ... --repin --repin-out BENCH_core.json \
      --require store_synth_samples_per_s=1.8 \
      --require 'BM_MonsoonCaptureSynthesis/10_items_per_s=1.8' \
      --note 'why the baseline moved'

--repin refuses to write a new baseline unless every --require metric
improved by at least its stated factor over the old pin. A re-pin that
cannot demonstrate its claimed win is a no-op with a non-zero exit: the
point of the pin is that it only ever moves on purpose, with the
justification recorded in the artifact's note.
"""

import argparse
import datetime
import json
import sys


def median_items_per_second(micro):
    """google-benchmark JSON -> {bench name: median items_per_second}."""
    out = {}
    for entry in micro.get("benchmarks", []):
        # Benches that never call SetItemsProcessed carry no items_per_second
        # and are not part of the gate.
        if "items_per_second" not in entry:
            continue
        # With --benchmark_report_aggregates_only the run_name field holds
        # the plain bench name and aggregate_name tags mean/median/stddev.
        if entry.get("aggregate_name") == "median":
            out[entry["run_name"]] = entry["items_per_second"]
        elif "aggregate_name" not in entry:
            # Repetition-less runs: single entry per bench, no aggregates.
            out[entry["name"]] = entry["items_per_second"]
    return out


def collect_current(micro, e2e, store, persist, flame, health):
    rates = {}
    for name, value in median_items_per_second(micro).items():
        rates[f"{name}_items_per_s"] = value
    rates["scenario_e2e_events_per_s"] = e2e["events_per_s"]
    rates["scenario_e2e_scenarios_per_s"] = e2e["scenarios_per_s"]
    rates["store_sim_events_per_s"] = store["sim_events_per_s"]
    rates["store_synth_samples_per_s"] = store["synth_samples_per_s"]
    rates["store_encode_samples_per_s"] = (
        store["encode_msamples_per_s"] * 1e6
    )
    rates["persist_append_samples_per_s"] = persist[
        "persist_append_samples_per_s"
    ]
    rates["persist_cold_query_samples_per_s"] = persist[
        "persist_cold_query_samples_per_s"
    ]
    rates["persist_recovery_records_per_s"] = persist[
        "persist_recovery_records_per_s"
    ]
    if flame is not None:
        rates["flame_spans_per_s"] = flame["flame_spans_per_s"]
    if health is not None:
        rates["rollup_captures_per_s"] = health["rollup_captures_per_s"]
    return rates


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
    """Build the replacement baseline, or return (None, failures)."""
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
    metrics = {}
    for name, pinned in baseline["metrics"].items():
        got = current.get(name)
        if got is None:
            failures.append(f"{name}: no measurement produced")
            continue
        # Keep three significant figures: the pin documents a magnitude on a
        # reference machine, not a nanosecond-exact number.
        metrics[name] = {
            "baseline": float(f"{got:.3g}"),
            "pre_pr": pinned["baseline"],
        }
    if failures:
        return None, failures
    new_baseline = dict(baseline)
    new_baseline["metrics"] = metrics
    new_baseline["pinned_date"] = datetime.date.today().isoformat()
    if note is not None:
        new_baseline["note"] = note
    return new_baseline, []


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--micro", required=True)
    parser.add_argument("--e2e", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--persist", required=True)
    parser.add_argument(
        "--flame",
        help="flame_aggregate emitter JSON (optional until the analytics "
        "bench exists in the build being gated)",
    )
    parser.add_argument(
        "--health",
        help="health_rollup emitter JSON (optional until the fleet-health "
        "bench exists in the build being gated)",
    )
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--repin",
        action="store_true",
        help="rewrite the pinned baseline from this run's measurements",
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
    with open(args.micro) as f:
        micro = json.load(f)
    with open(args.e2e) as f:
        e2e = json.load(f)
    with open(args.store) as f:
        store = json.load(f)
    with open(args.persist) as f:
        persist = json.load(f)
    flame = None
    if args.flame:
        with open(args.flame) as f:
            flame = json.load(f)
    health = None
    if args.health:
        with open(args.health) as f:
            health = json.load(f)

    floor = baseline.get("floor_fraction", 0.7)
    current = collect_current(micro, e2e, store, persist, flame, health)

    failures = []
    report = []
    for name, pinned in sorted(baseline["metrics"].items()):
        pinned_rate = pinned["baseline"]
        got = current.get(name)
        if got is None:
            failures.append(f"{name}: no measurement produced")
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
