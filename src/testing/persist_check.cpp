#include "testing/persist_check.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "hw/power_monitor.hpp"
#include "net/network.hpp"
#include "server/access_server.hpp"
#include "sim/simulator.hpp"
#include "store/capture_store.hpp"
#include "store/chunked_capture.hpp"
#include "store/persist/engine.hpp"
#include "testing/harness.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace blab::testing {

namespace {

namespace fs = std::filesystem;
using util::Duration;
using util::TimePoint;

/// Every answer the store's query API gives for every record it knows,
/// rendered to one deterministic string. Compared byte-for-byte across the
/// kill. Deliberately excludes source_of(): "memory" before the crash versus
/// "disk" after is the one difference recovery is *allowed* to make.
std::string snapshot_store(store::CaptureStore& store) {
  std::ostringstream os;
  for (const std::string& ws : store.workspaces()) {
    for (const store::CaptureId& id : store.list(ws)) {
      os << id.str();
      if (const auto name = store.name_of(id); name.has_value()) {
        os << " name=" << *name;
      }
      auto raw = store.range(id, TimePoint::epoch(), TimePoint::max());
      if (raw.ok()) {
        const auto& samples = raw.value().samples_ma();
        std::string bits(reinterpret_cast<const char*>(samples.data()),
                         samples.size() * sizeof(float));
        os << " raw n=" << samples.size() << " h=" << util::fnv1a(bits);
      } else {
        os << " raw err=" << util::error_code_name(raw.error().code);
      }
      if (const auto e = store.energy_mwh(id); e.ok()) {
        os << " mwh=" << util::format_double(e.value(), 9);
      }
      if (const auto m = store.mean_ma(id); m.ok()) {
        os << " ma=" << util::format_double(m.value(), 9);
      }
      if (auto agg = store.aggregate(id, Duration::seconds(1)); agg.ok()) {
        os << " agg";
        for (const auto& b : agg.value()) {
          os << " [" << b.t_begin.us() << "," << b.t_end.us() << ")"
             << b.samples << ":" << util::format_double(b.mean_ma, 6) << "/"
             << util::format_double(b.min_ma, 6) << "/"
             << util::format_double(b.max_ma, 6);
        }
      }
      if (auto cdf = store.percentiles(id); cdf.ok()) {
        os << " cdf n=" << cdf.value().count()
           << " p50=" << util::format_double(cdf.value().quantile(0.5), 6)
           << " p90=" << util::format_double(cdf.value().quantile(0.9), 6)
           << " p99=" << util::format_double(cdf.value().quantile(0.99), 6);
      }
      os << "\n";
    }
  }
  return os.str();
}

std::size_t count_lines(const std::string& s) {
  std::size_t n = 0;
  for (const char c : s) n += c == '\n' ? 1 : 0;
  return n;
}

std::string first_diff(const std::string& before, const std::string& after) {
  const auto pre = util::split(before, '\n');
  const auto post = util::split(after, '\n');
  for (std::size_t i = 0; i < std::max(pre.size(), post.size()); ++i) {
    const std::string_view a = i < pre.size() ? pre[i] : "<missing>";
    const std::string_view b = i < post.size() ? post[i] : "<missing>";
    if (a != b) {
      return "line " + std::to_string(i) + ": pre-crash \"" + std::string{a} +
             "\" vs recovered \"" + std::string{b} + "\"";
    }
  }
  return "snapshots differ";
}

/// Seeded subsets commit store changes right before the kill: a workspace
/// purge of some workspaces, whose raw drops stay undemoted, or a retention
/// pass timed so the older captures are erased and the rest demoted.
void commit_changes(server::AccessServer& server, util::Rng& rng,
                    CrashRecoveryReport& report) {
  store::CaptureStore& store = server.capture_store();
  const double roll = rng.uniform();
  if (roll < 0.35) {
    for (const std::string& ws : store.workspaces()) {
      if (rng.chance(0.5)) report.drops += store.drop_workspace_raw(ws);
    }
  } else if (roll < 0.7) {
    store::persist::PersistEngine& engine = *server.persist_engine();
    std::vector<std::int64_t> stamps;
    engine.scan_catalog(
        [&stamps](const store::persist::PersistEngine::EntryInfo& e) {
          stamps.push_back(e.stored_at.us());
        });
    std::sort(stamps.begin(), stamps.end());
    stamps.erase(std::unique(stamps.begin(), stamps.end()), stamps.end());
    if (stamps.size() < 2) return;
    // Captures stored up to the chosen stamp reach the summary TTL; the
    // rest, stored seconds later, are far past the raw TTL.
    const std::int64_t oldest_kept = stamps[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(stamps.size()) - 2))];
    const std::size_t before = engine.size();
    (void)store.run_retention(TimePoint::from_micros(oldest_kept) +
                              store.policy().summary_ttl);
    report.erases = before - engine.size();
  }
}

/// Largest N among the files named <prefix>N<suffix> in `dir`, 0 if none.
std::uint64_t highest_numbered(const fs::path& dir, std::string_view prefix,
                               std::string_view suffix) {
  std::uint64_t highest = 0;
  std::error_code ec;
  for (const auto& file : fs::directory_iterator(dir, ec)) {
    const std::string name = file.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size() ||
        !name.starts_with(prefix) || !name.ends_with(suffix)) {
      continue;
    }
    const std::string digits = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    highest = std::max<std::uint64_t>(highest, std::stoull(digits));
  }
  return highest;
}

std::string random_bytes(util::Rng& rng, std::size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.uniform_int(0, 255));
  return bytes;
}

/// Plant a file a crash could have left at one of the store's write points
/// and return its path. Recovery must ignore it and collect it.
fs::path plant_file(const fs::path& dir, PlantedFile kind, util::Rng& rng) {
  const std::string next_segment = std::to_string(
      std::max(highest_numbered(dir, "seg-r-", ".blsg"),
               highest_numbered(dir, "seg-s-", ".blsg")) +
      1);
  const auto garbage = [&rng] {
    return random_bytes(rng, static_cast<std::size_t>(rng.uniform_int(1, 64)));
  };
  fs::path path;
  std::string bytes;
  switch (kind) {
    case PlantedFile::kManifest:
      // A torn install of the next manifest version.
      path = dir / ("manifest-" +
                    std::to_string(highest_numbered(dir, "manifest-", "") + 1));
      bytes = garbage();
      break;
    case PlantedFile::kSegment: {
      // An append that renamed its segment, the capture's bare image, and
      // died before its install.
      std::vector<float> samples(
          static_cast<std::size_t>(rng.uniform_int(1, 400)));
      for (float& v : samples) v = static_cast<float>(rng.uniform(5.0, 900.0));
      const store::ChunkedCapture cc = store::ChunkedCapture::encode(
          hw::Capture{TimePoint::epoch(), 5000.0, 3.85, std::move(samples)});
      path = dir / ("seg-r-" + next_segment + ".blsg");
      bytes = cc.serialize();
      break;
    }
    case PlantedFile::kTmp:
      // A segment write that died before its rename.
      path = dir / ("seg-r-" + next_segment + ".blsg.tmp");
      bytes = garbage();
      break;
    case PlantedFile::kNone:
      return {};
  }
  std::ofstream out{path, std::ios::binary};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

}  // namespace

CrashRecoveryReport check_crash_recovery(std::uint64_t seed,
                                         const std::string& dir) {
  CrashRecoveryReport report;
  report.seed = seed;

  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  const ScenarioSpec spec = generate_scenario(seed);
  util::Rng rng{seed ^ 0x6B1115EEDULL};

  RunOptions options;
  options.persist_dir = dir;
  options.kill_after_steps =
      static_cast<int>(rng.uniform_int(0, std::max(0, spec.steps - 1)));
  options.kill_extra = spec.step_length * rng.uniform(0.05, 0.95);
  report.kill_step = options.kill_after_steps;

  std::string before;
  options.before_teardown = [&](server::AccessServer& server) {
    commit_changes(server, rng, report);
    before = snapshot_store(server.capture_store());
  };
  const ScenarioResult crashed = run_scenario(spec, options);
  for (const auto& v : crashed.violations) {
    if (v.oracle == "persistence") {
      report.detail = v.detail;
      return report;
    }
  }
  report.captures = count_lines(before);

  fs::path planted;
  if (rng.chance(0.7)) {
    report.planted = static_cast<PlantedFile>(rng.uniform_int(1, 3));
    planted = plant_file(dir, report.planted, rng);
  }

  // The restart: a fresh deployment recovering the same directory. Only the
  // store matters — no vantage points are onboarded.
  std::string after;
  {
    sim::Simulator sim;
    net::Network net{sim, seed};
    server::AccessServer server{sim, net};
    if (auto st = server.enable_persistence(dir); !st.ok()) {
      report.detail = "recovery open failed: " + st.str();
      return report;
    }
    report.recovered = server.persist_engine()->stats().recovered_records;
    after = snapshot_store(server.capture_store());
  }

  if (before != after) {
    report.detail = first_diff(before, after);
    return report;
  }
  if (!planted.empty() && fs::exists(planted, ec)) {
    report.detail = "planted " + planted.filename().string() +
                    " survived recovery";
    return report;
  }
  report.ok = true;
  fs::remove_all(dir, ec);
  return report;
}

std::vector<CrashRecoveryReport> run_crash_recovery_corpus(
    const std::vector<std::uint64_t>& seeds, unsigned jobs,
    const std::string& base_dir) {
  // Same worker-pool shape as run_corpus: atomic claim index, results land
  // at their seed's slot, per-seed directories keep the runs independent.
  std::vector<CrashRecoveryReport> results(seeds.size());
  auto one = [&base_dir](std::uint64_t seed) {
    return check_crash_recovery(seed,
                                base_dir + "/seed-" + std::to_string(seed));
  };
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  jobs = static_cast<unsigned>(std::min<std::size_t>(jobs, seeds.size()));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < seeds.size(); ++i) results[i] = one(seeds[i]);
    return results;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= seeds.size()) return;
      results[i] = one(seeds[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (unsigned w = 0; w < jobs; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

const char* planted_file_name(PlantedFile planted) {
  switch (planted) {
    case PlantedFile::kNone: return "none";
    case PlantedFile::kManifest: return "manifest";
    case PlantedFile::kSegment: return "segment";
    case PlantedFile::kTmp: return "tmp";
  }
  return "?";
}

std::string CrashRecoveryReport::describe() const {
  std::ostringstream os;
  os << "seed " << seed << ": kill after step " << kill_step << ", "
     << drops << " drop(s), " << erases << " erase(s), planted "
     << planted_file_name(planted) << ", " << captures << " record(s), "
     << recovered << " recovered -> " << (ok ? "match" : detail);
  return os.str();
}

}  // namespace blab::testing
