// Persistent capture store bench: append throughput, cold-query
// throughput after a restart, crash-recovery speed (open() over a
// populated directory), and one retention pass that erases and demotes.
//
// Prints one flat JSON result (bench/report.hpp) whose
// persist_append_samples_per_s, persist_recovery_records_per_s and
// persist_cold_query_samples_per_s are pinned in BENCH_core.json; exits
// non-zero if correctness floors are missed (recovery must index every
// record, cold queries must be lossless).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <vector>

#include <unistd.h>

#include "bench/report.hpp"
#include "hw/power_monitor.hpp"
#include "store/capture_store.hpp"
#include "store/persist/engine.hpp"
#include "util/rng.hpp"

using namespace blab;

namespace {

constexpr std::size_t kSamples = 60000;  // 12 s at the Monsoon's 5 kHz
constexpr std::size_t kCaptures = 16;
constexpr int kRounds = 5;

hw::Capture synth_capture(std::uint64_t seed) {
  util::Rng rng{20191113 + seed};
  std::vector<float> samples;
  samples.reserve(kSamples);
  double v = 350.0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    v = std::clamp(v + rng.uniform(-8.0, 8.0), 5.0, 4500.0);
    samples.push_back(static_cast<float>(v));
  }
  return hw::Capture{util::TimePoint::epoch(), 5000.0, 3.85,
                     std::move(samples)};
}

}  // namespace

int main() {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("blab-bench-persist-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);

  std::vector<hw::Capture> captures;
  for (std::size_t i = 0; i < kCaptures; ++i) {
    captures.push_back(synth_capture(i));
  }
  const auto total_samples = static_cast<double>(kSamples * kCaptures);

  // -- archive-through append (one segment + manifest per capture) --------
  // One cold run populates the directory used by the recovery and cold-query
  // sections below; the rate is best-of-kRounds over fresh directories.
  double append_s = 1e9;
  for (int r = 0; r < kRounds; ++r) {
    const std::string round_dir = dir + "-round" + std::to_string(r);
    std::filesystem::remove_all(round_dir);
    store::persist::PersistEngine engine{round_dir};
    if (auto st = engine.open(); !st.ok()) {
      throw std::runtime_error{"open failed: " + st.str()};
    }
    store::CaptureStore st;
    st.attach_persistence(engine);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kCaptures; ++i) {
      st.append("vp-" + std::to_string(i % 4), "bench", captures[i],
                util::TimePoint::epoch() + util::Duration::seconds(
                                               static_cast<std::int64_t>(i)));
    }
    append_s = std::min(append_s, bench::seconds_since(t0));
    if (r == 0) {
      // A second batch, so the directory recovery opens holds twice the
      // records.
      for (std::size_t i = 0; i < kCaptures; ++i) {
        st.append("vp-" + std::to_string(i % 4), "bench", captures[i],
                  util::TimePoint::epoch() +
                      util::Duration::seconds(
                          static_cast<std::int64_t>(kCaptures + i)));
      }
      std::filesystem::remove_all(dir);
      std::filesystem::rename(round_dir, dir);
    } else {
      std::filesystem::remove_all(round_dir);
    }
  }

  // -- crash recovery: open() over the manifest's segments ----------------
  double recovery_s = 1e9;
  std::uint64_t recovered = 0;
  for (int r = 0; r < kRounds; ++r) {
    store::persist::PersistEngine engine{dir};
    const auto t0 = std::chrono::steady_clock::now();
    if (auto st = engine.open(); !st.ok()) {
      throw std::runtime_error{"recovery open failed: " + st.str()};
    }
    recovery_s = std::min(recovery_s, bench::seconds_since(t0));
    recovered = engine.stats().recovered_records;
  }
  if (recovered != 2 * kCaptures) {
    std::cerr << "FAIL: recovery indexed " << recovered << " of "
              << 2 * kCaptures << " records\n";
    return 1;
  }

  // -- cold queries after restart (disk load + chunk decode) --------------
  store::persist::PersistEngine cold_engine{dir};
  if (auto st = cold_engine.open(); !st.ok()) {
    throw std::runtime_error{"cold open failed: " + st.str()};
  }
  const std::uint64_t disk_bytes = cold_engine.disk_usage_bytes();
  double cold_s = 1e9;
  std::size_t cold_samples = 0;
  for (int r = 0; r < kRounds; ++r) {
    store::CaptureStore st;
    st.attach_persistence(cold_engine);
    cold_samples = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& ws : st.workspaces()) {
      for (const auto& id : st.list(ws)) {
        auto slice = st.range(id, util::TimePoint::epoch(),
                              util::TimePoint::max());
        if (!slice.ok()) {
          std::cerr << "FAIL: cold range(" << id.str()
                    << "): " << slice.error().str() << "\n";
          return 1;
        }
        cold_samples += slice.value().sample_count();
      }
    }
    cold_s = std::min(cold_s, bench::seconds_since(t0));
  }
  if (cold_samples != 2 * kSamples * kCaptures) {
    std::cerr << "FAIL: cold queries returned " << cold_samples << " of "
              << 2 * kSamples * kCaptures << " samples\n";
    return 1;
  }

  // -- one retention pass (erase + drop + demote) ---------------------------
  // A quarter of the captures are past the summary TTL and erased, half are
  // past the raw TTL and demoted into summary segments, the rest stay raw.
  // Best of kRounds, each on a fresh directory.
  const store::RetentionPolicy policy;
  const util::TimePoint retention_at =
      util::TimePoint::epoch() + policy.summary_ttl + util::Duration::minutes(10);
  const auto stored_at = [&](std::size_t i) {
    if (i < kCaptures / 4) return util::TimePoint::epoch();
    if (i < 3 * kCaptures / 4) return retention_at - policy.raw_ttl * 4.0;
    return retention_at - policy.raw_ttl * 0.5;
  };
  double retention_s = 1e9;
  std::size_t retention_records = 0;
  store::persist::PersistStats retention0;
  store::persist::PersistStats retention1;
  for (int r = 0; r < kRounds; ++r) {
    const std::string retention_dir = dir + "-retention";
    std::filesystem::remove_all(retention_dir);
    store::persist::PersistEngine engine{retention_dir};
    if (auto st = engine.open(); !st.ok()) {
      throw std::runtime_error{"retention open failed: " + st.str()};
    }
    store::CaptureStore st{policy};
    st.attach_persistence(engine);
    for (std::size_t i = 0; i < kCaptures; ++i) {
      st.append("vp-" + std::to_string(i % 4), "bench", captures[i],
                stored_at(i));
    }
    retention0 = engine.stats();
    const auto t0 = std::chrono::steady_clock::now();
    retention_records = st.run_retention(retention_at);
    retention_s = std::min(retention_s, bench::seconds_since(t0));
    retention1 = engine.stats();
    std::filesystem::remove_all(retention_dir);
  }
  if (retention_records != 3 * kCaptures / 4 ||
      retention1.demotions - retention0.demotions != kCaptures / 2) {
    std::cerr << "FAIL: retention touched " << retention_records
              << " records and demoted "
              << retention1.demotions - retention0.demotions << "\n";
    return 1;
  }

  bench::print_result(
      std::cout,
      {{"samples_per_capture", static_cast<double>(kSamples)},
       {"captures", static_cast<double>(kCaptures)},
       {"persist_append_samples_per_s", total_samples / append_s},
       {"persist_recovery_records_per_s",
        static_cast<double>(recovered) / recovery_s},
       {"persist_cold_query_samples_per_s",
        static_cast<double>(cold_samples) / cold_s},
       {"recovered_records", static_cast<double>(recovered)},
       {"disk_bytes", static_cast<double>(disk_bytes)},
       {"disk_bytes_per_sample",
        static_cast<double>(disk_bytes) / (2.0 * total_samples)},
       {"persist_retention_records_per_s",
        static_cast<double>(retention_records) / retention_s},
       {"retention_segments_written",
        static_cast<double>(retention1.segment_flushes -
                            retention0.segment_flushes)},
       {"retention_segments_deleted",
        static_cast<double>(retention1.segments_deleted -
                            retention0.segments_deleted)},
       {"retention_manifest_installs",
        static_cast<double>(retention1.manifest_installs -
                            retention0.manifest_installs)}});

  std::filesystem::remove_all(dir);
  return 0;
}
