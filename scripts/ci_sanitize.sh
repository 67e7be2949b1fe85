#!/usr/bin/env bash
# Sanitizer lane: build with ASan+UBSan (BLAB_SANITIZE=ON) and run the DST,
# capture-store, telemetry and failure-injection suites, then the store
# throughput bench. DST digests must come out identical under sanitizers —
# instrumentation that changes behavior is itself a bug. The obs suite rides
# along because its concurrency smokes (pooled corpus, multi-thread
# logging/counters) are exactly what sanitizers are for.
#
# The lane ends with a fuzz smoke: every wire-surface harness (fuzz/) replays
# the checked-in corpus, then runs FUZZ_RUNS bounded mutation rounds, all
# under the same sanitizers. With a Clang toolchain the harnesses use real
# libFuzzer; under GCC the bundled driver accepts the same CLI.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-asan}"
FUZZ_RUNS="${FUZZ_RUNS:-10000}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-strict_string_checks=1:detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

cmake -S . -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBLAB_SANITIZE=ON -DBLAB_FUZZ=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target blab_dst store_test persist_test failure_test obs_test \
           health_test store_throughput rest_backend_fuzz trace_io_fuzz \
           store_codec_fuzz novnc_fuzz persist_fuzz make_seed_corpus
ctest --test-dir "$BUILD_DIR" -L 'dst|store|obs|fuzz' --output-on-failure
# failure_test carries no ctest label, so the lane above skips it; run it
# directly.
"$BUILD_DIR"/tests/failure_test
"$BUILD_DIR"/bench/store_throughput

# Crash-recovery oracle, explicitly and at full width: kill-restart every
# corpus scenario under the sanitizers (the ctest lane above already runs it
# once through gtest discovery; this run pins the worker-pool width so ASan
# sees the concurrent recovery path).
"$BUILD_DIR"/tests/blab_dst --jobs=4 --gtest_filter='DstPersistence.*'

# Retry-chain + span-conservation oracles at full width: the retry corpus
# resubmits failed/aborted jobs (cross-trace links) while sampled span
# families keep weighted aggregates exact; pinning --jobs=4 makes ASan see
# the pooled path here too. (The new aggregation tests ride the obs label in
# the ctest lane above.)
"$BUILD_DIR"/tests/blab_dst --jobs=4 --gtest_filter='DstRetry*'

# Fleet-health oracle lane at full width: health-enabled corpus runs with the
# rollup-accuracy oracle live, GET /rollup and GET /health byte-compared
# serial vs pooled under the sanitizers. (health_test itself rides the obs
# label in the ctest lane above.)
"$BUILD_DIR"/tests/blab_dst --jobs=4 --gtest_filter='DstHealth.*'

# Fuzz smoke: corpus replay + bounded deterministic mutation per harness.
for target in rest_backend_fuzz trace_io_fuzz store_codec_fuzz novnc_fuzz \
              persist_fuzz; do
  "$BUILD_DIR"/fuzz/"$target" -runs="$FUZZ_RUNS" "tests/fuzz_corpus/$target"
done
