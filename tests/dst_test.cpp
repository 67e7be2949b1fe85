// Deterministic simulation testing (DST): seed-driven fuzzed scenarios run
// through the real access-server/scheduler/API stack, checked by invariant
// oracles after every step, and replayed from the same seed to prove the
// whole deployment is a pure function of (seed, scenario).
//
// To reproduce a failure locally, take the seed from the failure message and
// call blab::testing::replay_check(seed) — the report names the first
// divergent event. See DESIGN.md, "Deterministic simulation testing".
//
// This binary has a custom main: `blab_dst --jobs=N` (or BLAB_DST_JOBS=N)
// sets the worker count for the corpus tests below; 0 (the default) means
// one worker per hardware thread.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/trace_io.hpp"
#include "testing/harness.hpp"
#include "testing/persist_check.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace dst = blab::testing;

namespace {

using blab::util::Duration;
using blab::util::TimePoint;

/// Worker count for corpus tests; set by main() from --jobs=N or
/// BLAB_DST_JOBS. 0 = hardware concurrency (run_corpus's default).
unsigned g_corpus_jobs = 0;

// ------------------------------------------------------------------------
// The fuzz corpus: every seed builds a random deployment, survives its fault
// schedule with all oracles green, and replays byte-identically. The whole
// corpus runs through one worker pool instead of 40 separate gtest
// instances, so `ctest -L dst` pays one process start-up and the seeds run
// `--jobs` wide.
// ------------------------------------------------------------------------

TEST(DstCorpus, OraclesHoldAndReplayIsByteIdentical) {
  const auto seeds = dst::default_corpus(40);
  const auto reports = dst::run_replay_corpus(seeds, g_corpus_jobs);
  ASSERT_EQ(reports.size(), seeds.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const dst::ReplayReport& report = reports[i];
    ASSERT_EQ(report.seed, seeds[i]);
    EXPECT_TRUE(report.first.ok()) << report.first.violation_summary();
    EXPECT_TRUE(report.second.ok()) << report.second.violation_summary();
    EXPECT_TRUE(report.deterministic) << report.describe();
    EXPECT_EQ(report.first.digest_hex, report.second.digest_hex)
        << report.describe();
    EXPECT_GT(report.first.events_executed, 0u)
        << "seed " << report.seed
        << " ran no simulator events: " << report.first.description;
  }
}

// The pool must be invisible in the results: the same corpus run serially
// and with several workers yields byte-identical per-seed digests, in the
// same order. This is the determinism contract `--jobs` rides on.
TEST(DstCorpus, ParallelRunMatchesSerialPerSeed) {
  const auto seeds = dst::default_corpus(8);
  const auto serial = dst::run_corpus(seeds, 1);
  const auto parallel = dst::run_corpus(seeds, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].seed, parallel[i].seed) << "result order diverged";
    EXPECT_EQ(serial[i].digest_hex, parallel[i].digest_hex)
        << "seed " << seeds[i] << " digest depends on the worker count";
    EXPECT_EQ(serial[i].events_executed, parallel[i].events_executed)
        << "seed " << seeds[i];
    EXPECT_EQ(serial[i].trace.size(), parallel[i].trace.size())
        << "seed " << seeds[i];
    EXPECT_EQ(serial[i].metrics_text, parallel[i].metrics_text)
        << "seed " << seeds[i]
        << " telemetry snapshot depends on the worker count";
    EXPECT_FALSE(serial[i].metrics_text.empty()) << "seed " << seeds[i];
    EXPECT_EQ(serial[i].trace_json, parallel[i].trace_json)
        << "seed " << seeds[i]
        << " Perfetto trace output depends on the worker count";
    EXPECT_FALSE(serial[i].trace_json.empty()) << "seed " << seeds[i];
  }
}

// ------------------------------------------------------------------------
// Seed stability: the first five corpus seeds' digests are pinned in-repo.
// A diff here means some component consumed randomness or ordered events
// differently than it did when the golden values were recorded — that is a
// behavior change even if every oracle still passes. If the change is
// intentional, re-run this test and copy the printed digests over the
// pinned ones (see DESIGN.md).
// ------------------------------------------------------------------------

TEST(DstGolden, FirstFiveCorpusSeedDigestsArePinned) {
  const auto seeds = dst::default_corpus(5);
  // Re-pinned once by the ziggurat-sampler PR (DESIGN.md §13): the noise
  // stream and uniform_int draw order changed deliberately, with the ~2x
  // synthesis win banked in BENCH_core.json as the required justification.
  const std::vector<std::string> pinned = {
      "42ff2e955ac6a4e6",
      "525f856c01f5f42b",
      "780698edf08c0704",
      "13d16cc9fee701ea",
      "bc8899169e0b0b08",
  };
  ASSERT_EQ(seeds.size(), pinned.size());
  std::size_t captures = 0, faults = 0, dispatched = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const dst::ScenarioResult result = dst::run_scenario(seeds[i]);
    EXPECT_TRUE(result.ok()) << result.violation_summary();
    EXPECT_EQ(result.digest_hex, pinned[i])
        << "seed " << seeds[i] << " (" << result.description
        << ") drifted from its golden digest";
    captures += result.captures;
    faults += result.faults_injected;
    dispatched += result.jobs_dispatched;
  }
  // The pinned prefix must actually exercise the platform, not idle through.
  EXPECT_GT(dispatched, 0u);
  EXPECT_GT(faults, 0u);
  EXPECT_GT(captures, 0u);
}

// ------------------------------------------------------------------------
// Durable capture store: persistence must be invisible to the digest, and a
// kill -9 at a fuzzed sim-time must lose nothing a manifest already committed.
// ------------------------------------------------------------------------

// The durability engine schedules no simulator events and consumes no
// randomness, so running the pinned seeds with persistence enabled must
// reproduce the exact golden digests and event counts of the plain runs.
TEST(DstPersistence, PersistenceDoesNotPerturbPinnedDigests) {
  const std::string base = ::testing::TempDir() + "blab-dst-digest-" +
                           std::to_string(::getpid());
  for (const std::uint64_t seed : dst::default_corpus(5)) {
    const auto spec = dst::generate_scenario(seed);
    const dst::ScenarioResult plain = dst::run_scenario(spec);
    dst::RunOptions options;
    options.persist_dir = base + "/seed-" + std::to_string(seed);
    const dst::ScenarioResult persisted = dst::run_scenario(spec, options);
    EXPECT_TRUE(persisted.ok()) << persisted.violation_summary();
    EXPECT_EQ(plain.digest_hex, persisted.digest_hex)
        << "seed " << seed << ": enabling persistence changed the digest";
    EXPECT_EQ(plain.events_executed, persisted.events_executed)
        << "seed " << seed << ": persistence scheduled simulator events";
    EXPECT_EQ(plain.trace.size(), persisted.trace.size()) << "seed " << seed;
  }
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
}

// The kill-restart oracle: run each corpus seed with persistence, commit
// raw purges or a retention pass on seeded subsets, tear the deployment down
// mid-step with no shutdown path, restart onto the same directory (most
// seeds with a file planted at one of the store's write points), and
// require every store query answer to survive byte-identically.
TEST(DstPersistence, CrashRecoveryOracleAcrossCorpus) {
  const auto seeds = dst::default_corpus(40);
  const unsigned jobs = g_corpus_jobs == 0 ? 4 : g_corpus_jobs;
  const std::string base = ::testing::TempDir() + "blab-dst-crash-" +
                           std::to_string(::getpid());
  const auto reports = dst::run_crash_recovery_corpus(seeds, jobs, base);
  ASSERT_EQ(reports.size(), seeds.size());
  std::size_t with_data = 0, dropped = 0, erased = 0;
  std::map<dst::PlantedFile, std::size_t> planted;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].seed, seeds[i]);
    EXPECT_TRUE(reports[i].ok) << reports[i].describe();
    with_data += reports[i].recovered > 0 ? 1 : 0;
    dropped += reports[i].drops > 0 ? 1 : 0;
    erased += reports[i].erases > 0 ? 1 : 0;
    ++planted[reports[i].planted];
  }
  // The corpus must actually exercise recovery, not vacuously pass on empty
  // stores, uncommitted changes and untouched directories.
  EXPECT_GT(with_data, 0u) << "no seed persisted any capture before its kill";
  EXPECT_GT(dropped, 0u) << "no seed committed a raw drop before its kill";
  EXPECT_GT(erased, 0u) << "no seed committed an erase before its kill";
  for (const dst::PlantedFile kind :
       {dst::PlantedFile::kManifest, dst::PlantedFile::kSegment,
        dst::PlantedFile::kTmp}) {
    EXPECT_GT(planted[kind], 0u)
        << "no seed planted a " << dst::planted_file_name(kind) << " file";
  }
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
}

// ------------------------------------------------------------------------
// Retry lineage: with the harness retry knob on, every terminal
// failed/aborted job is resubmitted once, so each corpus seed exercises the
// cross-trace "retry_of" links under the retry-chain oracle and keeps the
// weighted span families honest under the span-conservation oracle. The
// knob is opt-in because the extra submissions change the event stream —
// the pinned golden digests above deliberately cover only plain runs.
// ------------------------------------------------------------------------

TEST(DstRetry, RetryChainsHoldAcrossCorpusSerialAndPooled) {
  const auto seeds = dst::default_corpus(40);
  const unsigned jobs = g_corpus_jobs == 0 ? 4 : g_corpus_jobs;
  dst::RunOptions options;
  options.retry_failed_jobs = true;
  const auto serial = dst::run_corpus(seeds, 1, options);
  const auto pooled = dst::run_corpus(seeds, jobs, options);
  ASSERT_EQ(serial.size(), seeds.size());
  ASSERT_EQ(pooled.size(), seeds.size());
  double resubmitted = 0.0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(serial[i].ok()) << serial[i].violation_summary();
    EXPECT_TRUE(pooled[i].ok()) << pooled[i].violation_summary();
    EXPECT_EQ(serial[i].digest_hex, pooled[i].digest_hex)
        << "seed " << seeds[i] << " retry digest depends on the worker count";
    EXPECT_EQ(serial[i].metrics_text, pooled[i].metrics_text)
        << "seed " << seeds[i];
    EXPECT_EQ(serial[i].trace_json, pooled[i].trace_json)
        << "seed " << seeds[i];
    resubmitted +=
        serial[i].metrics.value_or("blab_scheduler_jobs_resubmitted_total");
  }
  // The corpus must actually resubmit something, or the retry-chain oracle
  // passes vacuously on a fault schedule that never failed a job.
  EXPECT_GT(resubmitted, 0.0)
      << "no corpus seed produced a failed/aborted job to resubmit";
}

// ------------------------------------------------------------------------
// Fleet health engine: with the harness health knob on, every corpus seed
// stands up the rollup + SLO engines, evaluates SLOs on a recurring
// maintenance cadence, and answers GET /rollup + GET /health at scenario
// end. The rollup-accuracy oracle cross-checks the rollups against an
// independent catalog fold after every step, and the REST bodies must be
// byte-identical between serial and pooled runs. Like retries, the knob is
// opt-in because the recurring jobs change the event stream — the pinned
// golden digests cover only plain runs.
// ------------------------------------------------------------------------

TEST(DstHealth, RollupsAndHealthHoldAcrossCorpusSerialAndPooled) {
  const auto seeds = dst::default_corpus(40);
  const unsigned jobs = g_corpus_jobs == 0 ? 4 : g_corpus_jobs;
  dst::RunOptions options;
  options.enable_health = true;
  const auto serial = dst::run_corpus(seeds, 1, options);
  const auto pooled = dst::run_corpus(seeds, jobs, options);
  ASSERT_EQ(serial.size(), seeds.size());
  ASSERT_EQ(pooled.size(), seeds.size());
  std::size_t with_captures = 0;
  double evaluations = 0.0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(serial[i].ok()) << serial[i].violation_summary();
    EXPECT_TRUE(pooled[i].ok()) << pooled[i].violation_summary();
    EXPECT_EQ(serial[i].digest_hex, pooled[i].digest_hex)
        << "seed " << seeds[i] << " health digest depends on the worker count";
    EXPECT_EQ(serial[i].rollup_fleet_json, pooled[i].rollup_fleet_json)
        << "seed " << seeds[i] << " GET /rollup?scope=fleet is not "
        << "byte-identical between serial and pooled runs";
    EXPECT_EQ(serial[i].rollup_job_json, pooled[i].rollup_job_json)
        << "seed " << seeds[i];
    EXPECT_EQ(serial[i].rollup_vantage_json, pooled[i].rollup_vantage_json)
        << "seed " << seeds[i];
    EXPECT_EQ(serial[i].health_json, pooled[i].health_json)
        << "seed " << seeds[i] << " GET /health is not byte-identical";
    EXPECT_FALSE(serial[i].rollup_fleet_json.empty()) << "seed " << seeds[i];
    EXPECT_FALSE(serial[i].health_json.empty()) << "seed " << seeds[i];
    EXPECT_NE(serial[i].health_json.find("\"overall\""), std::string::npos)
        << "seed " << seeds[i] << ": " << serial[i].health_json;
    with_captures += serial[i].captures > 0 ? 1 : 0;
    evaluations += serial[i].metrics.value_or("blab_slo_evaluations_total");
  }
  // The corpus must actually feed the engines: some seeds archive captures
  // (so the rollup-accuracy oracle sees non-empty catalogs) and the
  // recurring maintenance job must have evaluated SLOs.
  EXPECT_GT(with_captures, 0u) << "no corpus seed archived any capture";
  EXPECT_GT(evaluations, 0.0) << "no recurring SLO evaluation ever ran";
}

// Turning the health engine on must not perturb what it observes: the
// pinned golden seeds still pass every oracle (now including
// rollup-accuracy) and their REST bodies replay byte-identically.
TEST(DstHealth, HealthRunsAreReplayDeterministic) {
  for (const std::uint64_t seed : dst::default_corpus(5)) {
    const auto spec = dst::generate_scenario(seed);
    dst::RunOptions options;
    options.enable_health = true;
    const dst::ScenarioResult first = dst::run_scenario(spec, options);
    const dst::ScenarioResult second = dst::run_scenario(spec, options);
    EXPECT_TRUE(first.ok()) << first.violation_summary();
    EXPECT_EQ(first.digest_hex, second.digest_hex) << "seed " << seed;
    EXPECT_EQ(first.rollup_fleet_json, second.rollup_fleet_json)
        << "seed " << seed;
    EXPECT_EQ(first.rollup_job_json, second.rollup_job_json)
        << "seed " << seed;
    EXPECT_EQ(first.rollup_vantage_json, second.rollup_vantage_json)
        << "seed " << seed;
    EXPECT_EQ(first.health_json, second.health_json) << "seed " << seed;
  }
}

// ------------------------------------------------------------------------
// Scenario generator properties.
// ------------------------------------------------------------------------

TEST(ScenarioGen, SameSeedYieldsSameSpec) {
  const auto a = dst::generate_scenario(42);
  const auto b = dst::generate_scenario(42);
  EXPECT_EQ(dst::describe(a), dst::describe(b));
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].name, b.jobs[i].name);
    EXPECT_EQ(a.jobs[i].submit_step, b.jobs[i].submit_step);
    EXPECT_EQ(a.jobs[i].shape, b.jobs[i].shape);
  }
}

TEST(ScenarioGen, CorpusGrowthPreservesExistingSeeds) {
  const auto small = dst::default_corpus(5);
  const auto large = dst::default_corpus(40);
  ASSERT_GE(large.size(), small.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i], large[i]) << "corpus seed " << i << " changed";
  }
}

TEST(ScenarioGen, GeneratedSpecsRespectDocumentedBounds) {
  for (std::uint64_t seed : dst::default_corpus(10)) {
    const auto spec = dst::generate_scenario(seed);
    EXPECT_GE(spec.nodes.size(), 1u);
    EXPECT_LE(spec.nodes.size(), 8u);
    for (const auto& node : spec.nodes) {
      EXPECT_GE(node.devices.size(), 1u);
      EXPECT_LE(node.devices.size(), 3u);
    }
    EXPECT_GE(spec.steps, 3);
    EXPECT_LE(spec.steps, 6);
    EXPECT_GE(spec.jobs.size(), 4u);
    EXPECT_EQ(spec.initial_credits.size(), spec.experimenters);
    for (const auto& job : spec.jobs) {
      EXPECT_LT(job.submit_step, spec.steps);
      EXPECT_LT(job.node, spec.nodes.size());
    }
    for (const auto& fault : spec.faults) {
      EXPECT_LT(fault.node, spec.nodes.size());
    }
  }
}

// ------------------------------------------------------------------------
// Trace recorder and divergence differ.
// ------------------------------------------------------------------------

TEST(TraceDiff, IdenticalTracesDoNotDiverge) {
  std::vector<dst::TraceEventRecord> a{
      {TimePoint::epoch(), 1, "boot", 0},
      {TimePoint::epoch() + Duration::millis(5), 2, "poll", 0}};
  const auto d = dst::first_divergence(a, a);
  EXPECT_FALSE(d.diverged);
  EXPECT_EQ(d.describe(), "traces identical");
}

TEST(TraceDiff, PinpointsFirstDifferingEvent) {
  std::vector<dst::TraceEventRecord> a{
      {TimePoint::epoch(), 1, "boot", 0},
      {TimePoint::epoch() + Duration::millis(5), 2, "poll", 0}};
  std::vector<dst::TraceEventRecord> b = a;
  b[1].label = "tick";
  const auto d = dst::first_divergence(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 1u);
  EXPECT_NE(d.describe().find("poll"), std::string::npos);
  EXPECT_NE(d.describe().find("tick"), std::string::npos);
}

TEST(TraceDiff, ReportsLengthMismatch) {
  std::vector<dst::TraceEventRecord> a{{TimePoint::epoch(), 1, "boot", 0}};
  std::vector<dst::TraceEventRecord> b;
  const auto d = dst::first_divergence(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 0u);
  EXPECT_NE(d.second.find("ended after 0 events"), std::string::npos);
}

TEST(TraceRecorder, NotesFoldIntoTheDigest) {
  blab::sim::Simulator sim;
  dst::TraceRecorder rec{sim};
  const std::uint64_t before = rec.digest();
  rec.note("checkpoint");
  EXPECT_NE(rec.digest(), before);
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].label, "checkpoint");
  EXPECT_EQ(rec.events()[0].seq, 0u);
}

TEST(TraceRecorder, DetachesFromSimulatorOnDestruction) {
  blab::sim::Simulator sim;
  {
    dst::TraceRecorder rec{sim};
    EXPECT_TRUE(sim.has_trace_hook());
  }
  EXPECT_FALSE(sim.has_trace_hook());
}

// ------------------------------------------------------------------------
// trace_io round-trip fuzz: export -> import -> export must be
// byte-identical, and malformed streams must be rejected, not mangled.
// ------------------------------------------------------------------------

TEST(TraceIoFuzz, ExportImportExportIsByteIdentical) {
  blab::util::Rng rng{0xD57C55ULL};
  // Rates whose sample period is exact at the CSV's 6-decimal resolution.
  const std::vector<double> rates{200.0, 500.0, 1000.0, 2000.0, 5000.0};
  for (int round = 0; round < 30; ++round) {
    const double hz = rng.pick(rates);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 400));
    std::vector<float> samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(static_cast<float>(rng.uniform(0.0, 6000.0)));
    }
    const blab::hw::Capture original{TimePoint::epoch(), hz,
                                     rng.uniform(3.3, 11.4), samples};
    std::ostringstream first;
    blab::analysis::write_capture_csv(original, first);
    std::istringstream in{first.str()};
    auto imported = blab::analysis::read_capture_csv_stream(in);
    ASSERT_TRUE(imported.ok()) << "round " << round;
    EXPECT_EQ(imported.value().sample_count(), n);
    EXPECT_DOUBLE_EQ(imported.value().sample_hz(), hz);
    std::ostringstream second;
    blab::analysis::write_capture_csv(imported.value(), second);
    EXPECT_EQ(first.str(), second.str())
        << "round " << round << " (hz=" << hz << ", n=" << n
        << ") did not round-trip byte-identically";
  }
}

TEST(TraceIoFuzz, RejectsTruncatedStream) {
  const std::string csv =
      "time_s,current_mA,voltage\n"
      "0.000000,100.000,3.850\n"
      "0.000200,101.2";  // final row cut mid-field: only two columns
  std::istringstream in{csv};
  const auto result = blab::analysis::read_capture_csv_stream(in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, blab::util::ErrorCode::kInvalidArgument);
}

TEST(TraceIoFuzz, RejectsNaNSample) {
  const std::string csv =
      "time_s,current_mA,voltage\n"
      "0.000000,100.000,3.850\n"
      "0.000200,nan,3.850\n";
  std::istringstream in{csv};
  const auto result = blab::analysis::read_capture_csv_stream(in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, blab::util::ErrorCode::kInvalidArgument);
}

TEST(TraceIoFuzz, RejectsOutOfOrderTimestamps) {
  const std::string csv =
      "time_s,current_mA,voltage\n"
      "0.000000,100.000,3.850\n"
      "0.000400,101.000,3.850\n"
      "0.000200,102.000,3.850\n";
  std::istringstream in{csv};
  const auto result = blab::analysis::read_capture_csv_stream(in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, blab::util::ErrorCode::kInvalidArgument);
}

TEST(TraceIoFuzz, RejectsDuplicateTimestamps) {
  const std::string csv =
      "time_s,current_mA,voltage\n"
      "0.000000,100.000,3.850\n"
      "0.000000,101.000,3.850\n";
  std::istringstream in{csv};
  const auto result = blab::analysis::read_capture_csv_stream(in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, blab::util::ErrorCode::kInvalidArgument);
}

// ------------------------------------------------------------------------
// Oracle registry surface.
// ------------------------------------------------------------------------

TEST(Oracles, DefaultRegistryCoversTheDocumentedInvariants) {
  dst::OracleRegistry registry;
  const auto names = registry.names();
  const std::vector<std::string> expected{
      "clock-monotonicity", "scheduler-safety",  "credit-ledger",
      "energy-conservation", "battery-sanity",   "mirroring-lifecycle",
      "dns-cert-consistency", "metric-accounting", "trace-integrity",
      "retry-chain",          "span-conservation", "rollup-accuracy"};
  for (const auto& name : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "missing oracle: " << name;
  }
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);  // consumes gtest's own flags
  if (const char* env = std::getenv("BLAB_DST_JOBS")) {
    g_corpus_jobs = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kJobs = "--jobs=";
    if (arg.rfind(kJobs, 0) == 0) {
      g_corpus_jobs = static_cast<unsigned>(
          std::strtoul(arg.substr(kJobs.size()).data(), nullptr, 10));
    }
  }
  return RUN_ALL_TESTS();
}
