// Fleet-health rollup bench: folds two synthetic catalogs through
// health::RollupEngine at every scope and reports catalog-scan throughput
// for each. Building the stores is untimed setup — the timed region is
// exactly what one GET /rollup request does (catalog scan + footer-summary
// fold + pooled tail quantiles + JSON-ready grouping), so the two pinned
// metrics gate the health engine's read path:
//   rollup_captures_per_s        --captures captures of --samples samples
//                                (default 400 of 6,000: 60 tier means each)
//   rollup_paper_captures_per_s  32 captures of 926,000 samples, a paper
//                                job's capture (about 9,260 tier means each),
//                                shaped like bench/e2e fleet_query's catalog
//                                after its 32 set-up jobs
//
// Usage: health_rollup [--captures=N] [--samples=N] [--rounds=N] [--iters=N]
//   --captures=N  small catalog size (default 400)
//   --samples=N   samples per small capture (default 6000; 1.2 s at 5 kHz)
//   --rounds=N    repetitions; the best round is reported (default 5)
//   --iters=N     fleet+job+vantage compute passes per round (default 20)
//
// Prints one flat JSON result (bench/report.hpp) whose two rates are pinned
// in BENCH_core.json; exits non-zero if a rollup disagrees with an
// independent recomputation over the same store (a perf number from a wrong
// rollup would be meaningless).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/report.hpp"
#include "hw/power_monitor.hpp"
#include "obs/health/rollup.hpp"
#include "store/capture_store.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace blab;

namespace {

constexpr health::RollupScope kScopes[] = {health::RollupScope::kFleet,
                                           health::RollupScope::kJob,
                                           health::RollupScope::kVantage};

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

/// Appends `captures` captures of `samples` samples, capture i in workspace
/// job-(i % workspaces) and stored i seconds after the epoch, so the window
/// filter has real work to do. With `drop_raw`, each workspace's raw tier
/// is purged right after its append: a rollup never reads raw chunks, and a
/// store of paper-sized images would otherwise hold ~2.9 MB per capture.
void fill(store::CaptureStore& store, std::size_t captures,
          std::size_t samples, std::size_t workspaces, std::uint64_t seed,
          bool drop_raw) {
  for (std::size_t i = 0; i < captures; ++i) {
    const std::string workspace = "job-" + std::to_string(i % workspaces);
    const auto stored =
        util::TimePoint::epoch() + util::Duration::seconds(1.0 * i);
    std::string name = "m";
    name += std::to_string(i);
    (void)store.append(workspace, std::move(name),
                       make_capture(seed + i, samples), stored);
    if (drop_raw) (void)store.drop_workspace_raw(workspace);
  }
}

/// job-N -> vp-(N % vantages), alternating device class.
health::ContextResolver resolver_over(std::size_t vantages) {
  return [vantages](const std::string& workspace) {
    const std::size_t n = std::strtoul(workspace.c_str() + 4, nullptr, 10);
    health::CaptureContext ctx;
    ctx.vantage = "vp-" + std::to_string(n % vantages);
    ctx.device_class = (n % 2 == 0) ? "android-phone" : "ios-phone";
    ctx.owner = "bench";
    return ctx;
  };
}

/// The correctness gate, run before timing. The fleet energy must equal the
/// plain ascending-id sum over the same footers (the DST oracle's
/// contract), and in every scope each group's p95/p99 must carry the bits
/// of a sorting util::Cdf over its captures' pooled percentiles().
bool rollups_agree(store::CaptureStore& store, health::RollupEngine& engine,
                   const health::ContextResolver& resolver,
                   std::size_t captures) {
  const std::vector<store::CaptureId> ids =
      store.catalog(util::TimePoint::epoch(), util::TimePoint::max());
  double expect_energy = 0.0;
  for (const auto& id : ids) {
    if (auto e = store.energy_mwh(id); e.ok()) expect_energy += e.value();
  }
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const auto scope : kScopes) {
    const char* scope_name = health::rollup_scope_name(scope);
    std::map<std::string, std::vector<double>> pools;
    for (const auto& id : ids) {
      const auto cdf = store.percentiles(id);
      if (!cdf.ok()) {
        std::cerr << "FAIL: no percentiles for " << id.str() << "\n";
        return false;
      }
      const std::string key =
          scope == health::RollupScope::kFleet ? "fleet"
          : scope == health::RollupScope::kJob ? id.workspace
                                               : resolver(id.workspace).vantage;
      const std::vector<double>& points = cdf.value().samples();
      pools[key].insert(pools[key].end(), points.begin(), points.end());
    }
    const health::Rollup rollup = engine.compute(scope);
    if (rollup.captures_scanned != captures ||
        rollup.groups.size() != pools.size()) {
      std::cerr << "FAIL: " << scope_name << " rollup scanned "
                << rollup.captures_scanned << " captures into "
                << rollup.groups.size() << " groups\n";
      return false;
    }
    if (scope == health::RollupScope::kFleet &&
        rollup.groups.front().energy_mwh != expect_energy) {
      std::cerr << "FAIL: fleet rollup energy disagrees with the independent "
                   "fold\n";
      return false;
    }
    for (const health::RollupGroup& g : rollup.groups) {
      const auto pool = pools.find(g.key);
      if (pool == pools.end()) {
        std::cerr << "FAIL: unexpected " << scope_name << " group " << g.key
                  << "\n";
        return false;
      }
      const util::Cdf sorted{std::move(pool->second)};
      if (bits(g.p95_ma) != bits(sorted.quantile(0.95)) ||
          bits(g.p99_ma) != bits(sorted.quantile(0.99))) {
        std::cerr << "FAIL: " << scope_name << " group " << g.key
                  << " p95/p99 differ from the sorted pool\n";
        return false;
      }
    }
  }
  return true;
}

struct Timing {
  double best_s = 1e300;
  std::size_t groups = 0;  ///< groups over the three scopes of one pass
  std::uint64_t sink = 0;  ///< folded results, so the loop cannot be elided
};

/// Best of `rounds` rounds of `iters` fleet+job+vantage passes.
Timing time_rollups(health::RollupEngine& engine, int rounds, int iters) {
  Timing t;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < iters; ++it) {
      std::size_t group_count = 0;
      for (const auto scope : kScopes) {
        const health::Rollup rollup = engine.compute(scope);
        t.sink += rollup.captures_scanned + rollup.groups.size();
        group_count += rollup.groups.size();
      }
      t.groups = group_count;
    }
    t.best_s = std::min(t.best_s, bench::seconds_since(t0));
  }
  return t;
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

  // Untimed setup. The small catalog is shaped like a long-running
  // deployment's: a few dozen job workspaces spread across a handful of
  // vantage points. The paper catalog is fleet_query's: one job workspace
  // per capture, all on one vantage point.
  constexpr std::size_t kWorkspaces = 24;
  constexpr std::size_t kVantages = 6;
  constexpr std::size_t kPaperCaptures = 32;
  constexpr std::size_t kPaperSamples = 926'000;
  store::CaptureStore small_store;
  fill(small_store, n_captures, n_samples, kWorkspaces, 1000, false);
  store::CaptureStore paper_store;
  fill(paper_store, kPaperCaptures, kPaperSamples, kPaperCaptures, 5000, true);

  const health::ContextResolver small_resolver = resolver_over(kVantages);
  health::RollupEngine small{small_store};
  small.set_context_resolver(small_resolver);
  const health::ContextResolver paper_resolver = resolver_over(1);
  health::RollupEngine paper{paper_store};
  paper.set_context_resolver(paper_resolver);

  if (!rollups_agree(small_store, small, small_resolver, n_captures) ||
      !rollups_agree(paper_store, paper, paper_resolver, kPaperCaptures)) {
    return 1;
  }

  const Timing small_t = time_rollups(small, rounds, iters);
  const Timing paper_t = time_rollups(paper, rounds, iters);

  // Three scopes scan the full catalog once each per iteration.
  const auto scanned = [&](std::size_t captures) {
    return 3.0 * static_cast<double>(captures) * static_cast<double>(iters);
  };
  bench::print_result(
      std::cout,
      {{"captures", static_cast<double>(n_captures)},
       {"samples_per_capture", static_cast<double>(n_samples)},
       {"workspaces", static_cast<double>(kWorkspaces)},
       {"vantages", static_cast<double>(kVantages)},
       {"groups", static_cast<double>(small_t.groups)},
       {"iters", static_cast<double>(iters)},
       {"rounds", static_cast<double>(rounds)},
       {"best_wall_s", small_t.best_s},
       {"rollup_computes_per_s", 3.0 * iters / small_t.best_s},
       {"rollup_captures_per_s", scanned(n_captures) / small_t.best_s},
       {"paper_captures", static_cast<double>(kPaperCaptures)},
       {"paper_samples_per_capture", static_cast<double>(kPaperSamples)},
       {"paper_groups", static_cast<double>(paper_t.groups)},
       {"paper_best_wall_s", paper_t.best_s},
       {"rollup_paper_captures_per_s",
        scanned(kPaperCaptures) / paper_t.best_s}});
  return small_t.sink == 0 || paper_t.sink == 0 ? 1 : 0;
}
