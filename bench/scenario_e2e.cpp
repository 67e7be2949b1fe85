// End-to-end DST scenario bench: drives whole fuzzed deployments (access
// server + vantage points + device zoo + faults + oracles) through the
// worker-pool corpus runner and reports scenario and simulator-event
// throughput. This is the macro companion to micro_core's kernel benches —
// it exercises the schedule/cancel/fire hot path under the real platform
// workload instead of empty callbacks.
//
// Usage: scenario_e2e [--jobs=N] [--seeds=N] [--rounds=N] [--metrics-out=P]
//                     [--trace-out=P]
//   --jobs=N         worker-pool width (0 = hardware concurrency, default 1
//                    so the pinned baseline measures single-thread speed)
//   --seeds=N        corpus size per round (default 16)
//   --rounds=N       repetitions; the best round is reported (default 3)
//   --metrics-out=P  write the corpus-merged telemetry snapshot (Prometheus
//                    text) to P — the per-run metrics artifact ci_bench.sh
//                    archives next to BENCH_core.json
//   --trace-out=P    write the corpus-merged span set as Chrome trace-event
//                    JSON (one Perfetto process per seed) to P
//
// Prints one flat JSON result (bench/report.hpp) whose
// scenario_e2e_scenarios_per_s and scenario_e2e_events_per_s are pinned in
// BENCH_core.json; exits non-zero if any scenario trips an oracle or runs
// zero events (a perf number from a broken run would be meaningless).
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/report.hpp"
#include "obs/export.hpp"
#include "testing/harness.hpp"
#include "testing/scenario.hpp"
#include "util/logging.hpp"

using namespace blab;

int main(int argc, char** argv) {
  unsigned jobs = 1;
  std::size_t n_seeds = 16;
  int rounds = 3;
  std::string metrics_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = static_cast<unsigned>(bench::flag_value(arg, "--jobs="));
    } else if (arg.rfind("--seeds=", 0) == 0) {
      n_seeds = bench::flag_value(arg, "--seeds=");
    } else if (arg.rfind("--rounds=", 0) == 0) {
      rounds = static_cast<int>(bench::flag_value(arg, "--rounds="));
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(sizeof("--metrics-out=") - 1);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(sizeof("--trace-out=") - 1);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  util::Logger::global().set_level(util::LogLevel::kOff);

  const auto seeds = testing::default_corpus(n_seeds);
  double best_s = 1e300;
  std::uint64_t events = 0;
  std::size_t captures = 0;
  std::size_t violations = 0;
  obs::MetricsSnapshot merged;
  std::string merged_trace;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = testing::run_corpus(seeds, jobs);
    const double wall = bench::seconds_since(t0);
    events = 0;
    captures = 0;
    violations = 0;
    std::vector<obs::MetricsSnapshot> snaps;
    snaps.reserve(results.size());
    for (const auto& result : results) {
      events += result.events_executed;
      captures += result.captures;
      violations += result.violations.size();
      snaps.push_back(result.metrics);
    }
    // Every round runs the identical corpus, so the merged snapshot is the
    // same whichever round produced it; keep the last.
    merged = obs::merge_snapshots(snaps);
    if (!trace_out.empty()) {
      std::vector<std::pair<std::uint64_t, const std::vector<obs::SpanRecord>*>>
          per_seed;
      per_seed.reserve(results.size());
      for (const auto& result : results) {
        per_seed.emplace_back(result.seed, &result.spans);
      }
      merged_trace = obs::encode_trace_json_corpus(per_seed);
    }
    if (wall < best_s) best_s = wall;
  }

  if (!metrics_out.empty()) {
    std::ofstream out{metrics_out};
    if (!out) {
      std::cerr << "cannot write metrics artifact: " << metrics_out << "\n";
      return 2;
    }
    out << obs::encode_prometheus(merged);
  }
  if (!trace_out.empty()) {
    std::ofstream out{trace_out};
    if (!out) {
      std::cerr << "cannot write trace artifact: " << trace_out << "\n";
      return 2;
    }
    out << merged_trace;
  }

  bench::print_result(
      std::cout,
      {{"scenarios", static_cast<double>(seeds.size())},
       {"jobs", static_cast<double>(jobs)},
       {"rounds", static_cast<double>(rounds)},
       {"best_wall_s", best_s},
       {"scenario_e2e_scenarios_per_s",
        static_cast<double>(seeds.size()) / best_s},
       {"events_executed", static_cast<double>(events)},
       {"scenario_e2e_events_per_s", static_cast<double>(events) / best_s},
       {"captures", static_cast<double>(captures)},
       {"oracle_violations", static_cast<double>(violations)}});

  if (violations != 0) {
    std::cerr << "FAIL: " << violations << " oracle violation(s) during the "
              << "bench corpus; perf numbers from a broken run are invalid\n";
    return 1;
  }
  if (events == 0) {
    std::cerr << "FAIL: bench corpus executed zero simulator events\n";
    return 1;
  }
  return 0;
}
