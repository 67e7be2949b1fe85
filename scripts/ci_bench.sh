#!/usr/bin/env bash
# Bench-smoke lane: Release build of the core hot-path benches, one JSON
# result file per program in $BUILD_DIR/bench-results/, and the
# perf-regression gate against the pinned BENCH_core.json baseline. The
# merged artifact (pinned + current rates) lands in
# $BUILD_DIR/BENCH_core.json; CI uploads it and the results directory.
#
# Absolute rates vary across CI machines, so the gate floor is deliberately
# loose (>30% regression fails); the pinned baseline documents the reference
# machine alongside the numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"

cmake -S . -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target micro_core scenario_e2e store_throughput store_persist \
           flame_aggregate health_rollup

# Every result lands in $RESULTS, one JSON file per program; the gate reads
# the top level and CI uploads the whole directory.
RESULTS="$BUILD_DIR/bench-results"
rm -rf "$RESULTS"
mkdir -p "$RESULTS/sweep"

"$BUILD_DIR"/bench/micro_core \
  --benchmark_format=json \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  > "$RESULTS/micro_core.json"
"$BUILD_DIR"/bench/scenario_e2e --jobs=1 --seeds=24 --rounds=5 \
  --metrics-out="$BUILD_DIR/BENCH_metrics.prom" \
  --trace-out="$BUILD_DIR/BENCH_trace.json" \
  > "$RESULTS/scenario_e2e.json"
"$BUILD_DIR"/bench/store_throughput > "$RESULTS/store_throughput.json"
"$BUILD_DIR"/bench/store_persist > "$RESULTS/store_persist.json"
"$BUILD_DIR"/bench/flame_aggregate > "$RESULTS/flame_aggregate.json"
"$BUILD_DIR"/bench/health_rollup > "$RESULTS/health_rollup.json"

# Determinism-window kernel sweep: the same scenario corpus at three sizes,
# serial and 4-way parallel. Parallel speedup here is only trustworthy
# because the DST oracle pins serial == --jobs=4 digests — the sweep is the
# perf face of that correctness invariant, uploaded with the other results
# so a scaling regression (e.g. contention that only shows at 160 seeds) is
# visible in CI history. It is not gated: each point carries the pinned
# scenario_e2e names, so the points sit in sweep/, which the gate does not
# read.
for seeds in 10 40 160; do
  for jobs in 1 4; do
    "$BUILD_DIR"/bench/scenario_e2e --jobs="$jobs" --seeds="$seeds" \
      --rounds=3 > "$RESULTS/sweep/scenario_e2e_${seeds}x${jobs}.json"
  done
done

# The telemetry diff below runs whatever the perf gate returns; the lane
# fails at the end if either check failed.
gate_status=0
python3 scripts/bench_gate.py \
  --baseline BENCH_core.json \
  --out "$BUILD_DIR/BENCH_core.json" \
  "$RESULTS"/*.json || gate_status=$?

# Telemetry drift gate: the bench corpus is deterministic, so its merged
# counter snapshot only moves when the workload itself changes — --strict
# fails the lane on any counter drifting past the threshold. Series with a
# legitimate reason to move get an --allow prefix (with a comment saying
# why) instead of loosening the gate. The artifacts
# ($BUILD_DIR/BENCH_metrics.prom, $BUILD_DIR/BENCH_trace.json) upload
# alongside BENCH_core.json either way.
#
# Allowlist:
#   blab_sim_lazy_cancel_skips_total — lazy-cancel skip counts depend on
#     heap interleaving, which is sensitive to event arena sizing tweaks
#     that do not change the workload itself.
diff_status=0
python3 scripts/metrics_diff.py \
  --baseline BENCH_metrics.prom \
  --current "$BUILD_DIR/BENCH_metrics.prom" \
  --threshold 10 \
  --strict \
  --allow blab_sim_lazy_cancel_skips_total || diff_status=$?

if (( gate_status != 0 || diff_status != 0 )); then
  echo "ci_bench: perf gate exit $gate_status, metrics diff exit $diff_status" >&2
  exit 1
fi
