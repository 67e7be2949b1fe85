// Trace-analytics bench: folds a DST corpus's span forest through
// obs/aggregate (merged flame tree + per-job critical paths) and reports
// span-fold throughput. The corpus run itself is untimed setup — the timed
// region is exactly what GET /flame does per request, so the pinned
// flame_spans_per_s metric gates the analytics path's performance.
//
// Usage: flame_aggregate [--seeds=N] [--rounds=N] [--iters=N]
//   --seeds=N   corpus size used to grow the span forests (default 40)
//   --rounds=N  repetitions; the best round is reported (default 5)
//   --iters=N   aggregation passes per round (default 50)
//
// Prints one flat JSON result (bench/report.hpp) whose flame_spans_per_s is
// pinned in BENCH_core.json; exits non-zero if the corpus trips an oracle or
// yields an empty span forest (a perf number from a broken run would be
// meaningless).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string_view>
#include <vector>

#include "bench/report.hpp"
#include "obs/aggregate.hpp"
#include "testing/harness.hpp"
#include "testing/scenario.hpp"
#include "util/logging.hpp"

using namespace blab;

int main(int argc, char** argv) {
  std::size_t n_seeds = 40;
  int rounds = 5;
  int iters = 50;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--seeds=", 0) == 0) {
      n_seeds = bench::flag_value(arg, "--seeds=");
    } else if (arg.rfind("--rounds=", 0) == 0) {
      rounds = static_cast<int>(bench::flag_value(arg, "--rounds="));
    } else if (arg.rfind("--iters=", 0) == 0) {
      iters = static_cast<int>(bench::flag_value(arg, "--iters="));
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  util::Logger::global().set_level(util::LogLevel::kOff);

  // Untimed setup: one corpus run. Each seed's span buffer stays its own
  // forest — span ids are only unique within one tracer, exactly like the
  // per-backend buffer GET /flame serves — so the timed region folds one
  // forest per seed per iteration.
  const auto seeds = testing::default_corpus(n_seeds);
  const auto results = testing::run_corpus(seeds, /*jobs=*/0);
  std::size_t violations = 0;
  std::size_t total_spans = 0;
  std::vector<std::vector<obs::SpanRecord>> forests;
  forests.reserve(results.size());
  for (const auto& result : results) {
    violations += result.violations.size();
    total_spans += result.spans.size();
    forests.push_back(result.spans);
  }
  if (violations != 0) {
    std::cerr << "FAIL: " << violations << " oracle violation(s) during the "
              << "bench corpus; perf numbers from a broken run are invalid\n";
    return 1;
  }
  if (total_spans == 0) {
    std::cerr << "FAIL: bench corpus produced no spans\n";
    return 1;
  }

  double best_s = 1e300;
  std::uint64_t sink = 0;  // folded results feed this so the loop can't DCE
  std::size_t paths = 0;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < iters; ++it) {
      std::size_t path_count = 0;
      for (const auto& forest : forests) {
        const obs::FlameNode flame = obs::build_flame(forest);
        const auto cps = obs::critical_paths(forest);
        sink += flame.count + cps.size();
        path_count += cps.size();
      }
      paths = path_count;
    }
    const double wall = bench::seconds_since(t0);
    if (wall < best_s) best_s = wall;
  }

  const double folded =
      static_cast<double>(total_spans) * static_cast<double>(iters);
  bench::print_result(
      std::cout,
      {{"seeds", static_cast<double>(seeds.size())},
       {"spans", static_cast<double>(total_spans)},
       {"critical_paths", static_cast<double>(paths)},
       {"iters", static_cast<double>(iters)},
       {"rounds", static_cast<double>(rounds)},
       {"best_wall_s", best_s},
       {"flame_builds_per_s", static_cast<double>(iters) / best_s},
       {"flame_spans_per_s", folded / best_s}});
  return sink == 0 ? 1 : 0;
}
