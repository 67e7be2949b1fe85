// Chunked capture store bench: encode/decode throughput, compression ratio
// against the CSV exporter, and proof that summary queries are served from
// chunk footers and tiers without touching raw payloads.
//
// Prints one flat JSON result (bench/report.hpp) whose
// store_encode_samples_per_s, store_sim_events_per_s and
// store_synth_samples_per_s are pinned in BENCH_core.json; exits non-zero if
// the acceptance floors (>= 4x compression, zero raw decodes for summary
// queries) are missed.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/trace_io.hpp"
#include "bench/report.hpp"
#include "hw/load.hpp"
#include "hw/power_monitor.hpp"
#include "sim/simulator.hpp"
#include "store/capture_store.hpp"
#include "store/chunked_capture.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace blab;

namespace {

constexpr std::size_t kSamples = 300000;  // 60 s at the Monsoon's 5 kHz
constexpr int kRounds = 5;

hw::Capture synth_capture() {
  util::Rng rng{20191113};
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

/// Kernel dispatch rate: schedule-and-drain kSamples empty events, best of
/// kRounds. The store ingests captures produced by simulator-driven
/// measurements, so event throughput bounds end-to-end ingest.
double sim_events_per_s() {
  double best_s = 1e9;
  for (int r = 0; r < kRounds; ++r) {
    sim::Simulator sim;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kSamples; ++i) {
      sim.schedule_after(util::Duration::micros(static_cast<std::int64_t>(i)),
                         [] {});
    }
    if (sim.run_all() != kSamples) throw std::runtime_error{"events lost"};
    best_s = std::min(best_s, bench::seconds_since(t0));
  }
  return static_cast<double>(kSamples) / best_s;
}

/// Capture synthesis rate: 60 s of 5 kHz Monsoon samples from a constant
/// load, best of kRounds — the producer side of every store append.
double synth_samples_per_s() {
  class SteadyLoad : public hw::Load {
   public:
    double current_ma(util::TimePoint) const override { return 350.0; }
    std::vector<std::pair<util::TimePoint, double>> current_segments(
        util::TimePoint t0, util::TimePoint) const override {
      return {{t0, 350.0}};
    }
  } load;
  double best_s = 1e9;
  for (int r = 0; r < kRounds; ++r) {
    sim::Simulator sim;
    hw::PowerMonitor monitor{sim, util::Rng{20191113}};
    monitor.set_mains(true);
    (void)monitor.set_voltage(3.85);
    monitor.connect_load(&load);
    (void)monitor.start_capture();
    sim.run_for(util::Duration::seconds(60));
    const auto t0 = std::chrono::steady_clock::now();
    auto capture = monitor.stop_capture();
    best_s = std::min(best_s, bench::seconds_since(t0));
    if (!capture.ok() || capture.value().sample_count() != kSamples) {
      throw std::runtime_error{"synthesis produced the wrong sample count"};
    }
  }
  return static_cast<double>(kSamples) / best_s;
}

}  // namespace

int main() {
  const hw::Capture capture = synth_capture();

  // -- encode / decode throughput (best of kRounds) ----------------------
  double encode_s = 1e9;
  double decode_s = 1e9;
  store::ChunkedCapture cc;
  for (int r = 0; r < kRounds; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    cc = store::ChunkedCapture::encode(capture);
    encode_s = std::min(encode_s, bench::seconds_since(t0));
    t0 = std::chrono::steady_clock::now();
    auto decoded = cc.decode();
    decode_s = std::min(decode_s, bench::seconds_since(t0));
    if (!decoded.ok() ||
        decoded.value().samples_ma() != capture.samples_ma()) {
      throw std::runtime_error{"round-trip is not lossless"};
    }
  }

  // -- compression vs the CSV exporter -----------------------------------
  std::ostringstream csv;
  analysis::write_capture_csv(capture, csv);
  const double csv_bytes = static_cast<double>(csv.str().size());
  const double chunked_bytes = static_cast<double>(cc.byte_size());
  const double ratio = csv_bytes / chunked_bytes;

  // -- store queries ------------------------------------------------------
  store::CaptureStore st;
  const auto id =
      st.append("bench", "synthetic", capture, util::TimePoint::epoch());

  auto t0 = std::chrono::steady_clock::now();
  double energy = 0.0;
  double mean = 0.0;
  std::size_t cdf_points = 0;
  std::size_t agg_buckets = 0;
  for (int r = 0; r < kRounds; ++r) {
    energy = st.energy_mwh(id).value();
    mean = st.mean_ma(id).value();
    cdf_points = st.percentiles(id).value().count();
    agg_buckets = st.aggregate(id, util::Duration::seconds(1)).value().size();
  }
  const double summary_s = bench::seconds_since(t0) / kRounds;
  const auto summary_decodes = st.stats().raw_chunk_decodes;

  t0 = std::chrono::steady_clock::now();
  std::size_t range_samples = 0;
  for (int r = 0; r < kRounds; ++r) {
    auto slice = st.range(id, util::TimePoint::epoch(),
                          util::TimePoint::epoch() +
                              util::Duration::seconds(60));
    range_samples = slice.value().sample_count();
  }
  const double range_s = bench::seconds_since(t0) / kRounds;

  bench::print_result(
      std::cout,
      {{"samples", static_cast<double>(kSamples)},
       {"store_encode_samples_per_s", kSamples / encode_s},
       {"decode_msamples_per_s", kSamples / decode_s / 1e6},
       {"chunked_bytes", chunked_bytes},
       {"csv_bytes", csv_bytes},
       {"compression_ratio_vs_csv", ratio},
       {"bytes_per_sample", chunked_bytes / kSamples},
       {"summary_query_us", summary_s * 1e6},
       {"summary_raw_chunk_decodes", static_cast<double>(summary_decodes)},
       {"range_query_msamples_per_s", range_samples / range_s / 1e6},
       {"cdf_points", static_cast<double>(cdf_points)},
       {"aggregate_buckets_1s", static_cast<double>(agg_buckets)},
       {"energy_mwh", energy},
       {"mean_ma", mean},
       {"store_sim_events_per_s", sim_events_per_s()},
       {"store_synth_samples_per_s", synth_samples_per_s()}});

  if (ratio < 4.0) {
    std::cerr << "FAIL: compression ratio " << util::format_double(ratio, 2)
              << " below the 4x floor\n";
    return 1;
  }
  if (summary_decodes != 0) {
    std::cerr << "FAIL: summary queries decoded " << summary_decodes
              << " raw chunks; footers/tiers should have sufficed\n";
    return 1;
  }
  return 0;
}
