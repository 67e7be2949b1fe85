// Fleet-health rollup bench: folds a synthetic persisted catalog through
// health::RollupEngine at every scope and reports catalog-scan throughput.
// Building the store is untimed setup — the timed region is exactly what one
// GET /rollup request does (catalog scan + footer-summary fold + JSON-ready
// grouping), so the pinned rollup_captures_per_s metric gates the health
// engine's read path.
//
// Usage: health_rollup [--captures=N] [--samples=N] [--rounds=N] [--iters=N]
//   --captures=N  catalog size (default 400)
//   --samples=N   samples per capture (default 6000; 1.2 s at 5 kHz)
//   --rounds=N    repetitions; the best round is reported (default 5)
//   --iters=N     fleet+job+vantage compute passes per round (default 20)
//
// Prints one flat JSON result (bench/report.hpp) whose rollup_captures_per_s
// is pinned in BENCH_core.json; exits non-zero if the fold disagrees with an
// independent sum over the same footers (a perf number from a wrong rollup
// would be meaningless).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/report.hpp"
#include "hw/power_monitor.hpp"
#include "obs/health/rollup.hpp"
#include "store/capture_store.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

using namespace blab;

namespace {

hw::Capture make_capture(std::uint64_t seed, std::size_t n) {
  util::Rng rng{seed};
  std::vector<float> samples;
  samples.reserve(n);
  double v = rng.uniform(150.0, 600.0);
  for (std::size_t i = 0; i < n; ++i) {
    v = std::clamp(v + rng.uniform(-8.0, 8.0), 5.0, 4500.0);
    samples.push_back(static_cast<float>(v));
  }
  return hw::Capture{util::TimePoint::epoch(), 5000.0, 3.85, samples};
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_captures = 400;
  std::size_t n_samples = 6000;
  int rounds = 5;
  int iters = 20;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--captures=", 0) == 0) {
      n_captures = bench::flag_value(arg, "--captures=");
    } else if (arg.rfind("--samples=", 0) == 0) {
      n_samples = bench::flag_value(arg, "--samples=");
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

  // Untimed setup: a catalog shaped like a real deployment's — a few dozen
  // job workspaces spread across a handful of vantage points, captures
  // stored at distinct times so the window filter has real work to do.
  constexpr std::size_t kWorkspaces = 24;
  constexpr std::size_t kVantages = 6;
  store::CaptureStore store;
  for (std::size_t i = 0; i < n_captures; ++i) {
    const std::string workspace = "job-" + std::to_string(i % kWorkspaces);
    const auto stored =
        util::TimePoint::epoch() + util::Duration::seconds(1.0 * i);
    (void)store.append(workspace, "m" + std::to_string(i),
                       make_capture(1000 + i, n_samples), stored);
  }
  // The engine folds in ascending CaptureId order; sum the same way so the
  // correctness gate below can demand bit equality.
  double expect_energy = 0.0;
  for (const auto& id :
       store.catalog(util::TimePoint::epoch(), util::TimePoint::max())) {
    if (auto e = store.energy_mwh(id); e.ok()) expect_energy += e.value();
  }

  health::RollupEngine engine{store};
  engine.set_context_resolver([](const std::string& workspace) {
    // job-N -> vp-(N % kVantages), alternating device class.
    const std::size_t n = std::strtoul(workspace.c_str() + 4, nullptr, 10);
    health::CaptureContext ctx;
    ctx.vantage = "vp-" + std::to_string(n % kVantages);
    ctx.device_class = (n % 2 == 0) ? "android-phone" : "ios-phone";
    ctx.owner = "bench";
    return ctx;
  });

  // Correctness gate before timing: the fleet fold must equal the plain
  // ascending-id sum over the same footers (the DST oracle's contract).
  {
    const auto fleet = engine.compute(health::RollupScope::kFleet);
    if (fleet.captures_scanned != n_captures || fleet.groups.size() != 1 ||
        fleet.groups.front().energy_mwh != expect_energy) {
      std::cerr << "FAIL: fleet rollup disagrees with the independent fold\n";
      return 1;
    }
  }

  double best_s = 1e300;
  std::uint64_t sink = 0;  // folded results feed this so the loop can't DCE
  std::size_t groups = 0;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < iters; ++it) {
      std::size_t group_count = 0;
      for (const auto scope :
           {health::RollupScope::kFleet, health::RollupScope::kJob,
            health::RollupScope::kVantage}) {
        const health::Rollup rollup = engine.compute(scope);
        sink += rollup.captures_scanned + rollup.groups.size();
        group_count += rollup.groups.size();
      }
      groups = group_count;
    }
    const double wall = bench::seconds_since(t0);
    if (wall < best_s) best_s = wall;
  }

  // Three scopes scan the full catalog once each per iteration.
  const double scanned = 3.0 * static_cast<double>(n_captures) *
                         static_cast<double>(iters);
  bench::print_result(
      std::cout,
      {{"captures", static_cast<double>(n_captures)},
       {"samples_per_capture", static_cast<double>(n_samples)},
       {"workspaces", static_cast<double>(kWorkspaces)},
       {"vantages", static_cast<double>(kVantages)},
       {"groups", static_cast<double>(groups)},
       {"iters", static_cast<double>(iters)},
       {"rounds", static_cast<double>(rounds)},
       {"best_wall_s", best_s},
       {"rollup_computes_per_s", 3.0 * iters / best_s},
       {"rollup_captures_per_s", scanned / best_s}});
  return sink == 0 ? 1 : 0;
}
