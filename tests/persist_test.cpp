// Durable capture store: CRC32C, WAL note framing and torn-tail tolerance,
// segment/manifest formats, the PersistEngine write and recovery paths
// (one segment per append committed by the manifest, note replay,
// compaction, retention, garbage collection), and the CaptureStore
// integration (archive-through appends, transparent cold queries).
//
// The exhaustive torn-write sweeps live here rather than in the fuzz lane:
// truncating and byte-flipping a small fixture at *every* offset is cheap
// and pins the "restore or cleanly drop, never wrong data" contract.
#include <gtest/gtest.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "hw/power_monitor.hpp"
#include "obs/metrics.hpp"
#include "store/capture_store.hpp"
#include "store/chunked_capture.hpp"
#include "store/persist/crc32c.hpp"
#include "store/persist/crc32c_internal.hpp"
#include "store/persist/engine.hpp"
#include "store/persist/formats.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
namespace persist = blab::store::persist;
using blab::hw::Capture;
using blab::store::CaptureId;
using blab::store::CaptureSource;
using blab::store::CaptureStore;
using blab::store::ChunkedCapture;
using blab::store::RetentionPolicy;
using blab::util::Duration;
using blab::util::TimePoint;

std::vector<float> walk_samples(std::uint64_t seed, std::size_t n) {
  blab::util::Rng rng{seed};
  std::vector<float> samples;
  samples.reserve(n);
  double v = 300.0;
  for (std::size_t i = 0; i < n; ++i) {
    v = std::clamp(v + rng.uniform(-8.0, 8.0), 5.0, 4500.0);
    samples.push_back(static_cast<float>(v));
  }
  return samples;
}

Capture make_capture(std::uint64_t seed, std::size_t n) {
  return Capture{TimePoint::epoch(), 5000.0, 3.85, walk_samples(seed, n)};
}

std::string capture_bytes(std::uint64_t seed, std::size_t n) {
  return std::string{ChunkedCapture::encode(make_capture(seed, n)).serialize()};
}

/// Fresh per-test scratch directory (removed by the test on success).
std::string scratch_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "blab-persist-" + tag + "-" +
                          std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir;
}

std::vector<persist::WalRecord> make_wal_fixture() {
  return {
      {persist::WalOp::kDropRaw, {"vp-oslo", 3}},
      {persist::WalOp::kErase, {"vp-rio", 7}},
      {persist::WalOp::kDropRaw, {"vp-rio", 2}},
      {persist::WalOp::kErase, {"vp-oslo", 3}},
  };
}

/// Directory of the shard that holds `workspace`.
fs::path shard_dir(const std::string& dir,
                   const persist::PersistEngine& engine,
                   const std::string& workspace) {
  char name[32];
  std::snprintf(name, sizeof name, "shard-%03zu", engine.shard_of(workspace));
  return fs::path{dir} / name;
}

/// Names of the files under `dir` that start with `prefix`, sorted.
std::vector<std::string> files_with_prefix(const fs::path& dir,
                                           const std::string& prefix) {
  std::vector<std::string> names;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string read_all(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  return std::string{std::istreambuf_iterator<char>{in},
                     std::istreambuf_iterator<char>{}};
}

// ------------------------------------------------------------------------
// CRC32C: the vectors and the chaining property run on the implementation
// crc32c() selected for this CPU and on the table reference; differential
// sweeps pin the two to each other.
// ------------------------------------------------------------------------

struct CrcPath {
  const char* name;
  persist::detail::Crc32cFn fn;
};
const CrcPath kCrcPaths[] = {{"selected", &persist::crc32c},
                             {"table", &persist::detail::crc32c_table}};

std::string random_bytes(blab::util::Rng& rng, std::size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.next_u64());
  return bytes;
}

TEST(Crc32c, MatchesKnownVectors) {
  // RFC 3720 appendix B.4 vectors, plus the customary "123456789" check.
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  const unsigned char read_pdu[48] = {
      0x01, 0xC0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  const std::string_view pdu{reinterpret_cast<const char*>(read_pdu),
                             sizeof read_pdu};
  for (const CrcPath& path : kCrcPaths) {
    SCOPED_TRACE(path.name);
    EXPECT_EQ(path.fn("123456789", 0), 0xE3069283u);
    EXPECT_EQ(path.fn("", 0), 0u);
    EXPECT_EQ(path.fn(std::string(32, '\0'), 0), 0x8A9136AAu);
    EXPECT_EQ(path.fn(std::string(32, '\xFF'), 0), 0x62A8AB43u);
    EXPECT_EQ(path.fn(ascending, 0), 0x46DD794Eu);
    EXPECT_EQ(path.fn(descending, 0), 0x113FDB5Cu);
    EXPECT_EQ(path.fn(pdu, 0), 0xD9963A56u);
  }
}

TEST(Crc32c, ChainsIncrementally) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (const CrcPath& path : kCrcPaths) {
    SCOPED_TRACE(path.name);
    const auto whole = path.fn(data, 0);
    for (std::size_t cut = 0; cut <= data.size(); ++cut) {
      const auto first = path.fn(data.substr(0, cut), 0);
      EXPECT_EQ(path.fn(data.substr(cut), first), whole) << cut;
    }
  }
}

TEST(Crc32c, SelectedMatchesTableAtEveryLengthAndOffset) {
  blab::util::Rng rng{71};
  const std::string buffer = random_bytes(rng, 1024 + 15);
  const std::string_view view{buffer};
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::string_view piece = view.substr(offset, len);
      // A nonzero incoming crc covers the chaining XORs at every shape.
      const auto seed = static_cast<std::uint32_t>(len * 0x9E3779B9u);
      ASSERT_EQ(persist::crc32c(piece, seed),
                persist::detail::crc32c_table(piece, seed))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, SelectedMatchesTableOnChainedSplitsOfACaptureSizedBuffer) {
  blab::util::Rng rng{72};
  const std::string buffer = random_bytes(rng, 3u << 20);
  const std::string_view view{buffer};
  const std::uint32_t whole = persist::detail::crc32c_table(view);
  EXPECT_EQ(persist::crc32c(view), whole);
  // Random splits, alternating short pieces (head/tail loops, every
  // alignment) with long ones (the 8-byte main loop).
  for (int round = 0; round < 8; ++round) {
    const std::int64_t max_piece = round % 2 == 0 ? 64 : 1 << 20;
    std::uint32_t chained = 0;
    for (std::size_t at = 0; at < view.size();) {
      const auto len = std::min<std::size_t>(
          static_cast<std::size_t>(rng.uniform_int(0, max_piece)),
          view.size() - at);
      chained = persist::crc32c(view.substr(at, len), chained);
      at += len;
    }
    EXPECT_EQ(chained, whole) << "round " << round;
  }
}

TEST(Crc32c, Sse42CpuSelectsTheInstructionPath) {
  // CPUID read independently of the implementation's own check.
#if defined(__x86_64__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  const bool sse42 =
      __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & bit_SSE4_2) != 0;
#else
  const bool sse42 = false;
#endif
  const persist::detail::Crc32cFn table = &persist::detail::crc32c_table;
  EXPECT_EQ(persist::detail::crc32c_selected() != table, sse42);
}

// ------------------------------------------------------------------------
// WAL framing: round-trip plus the exhaustive torn-write sweeps.
// ------------------------------------------------------------------------

TEST(WalFormat, RoundTripsEveryOpKind) {
  const auto records = make_wal_fixture();
  std::string image;
  for (const auto& r : records) persist::append_wal_record(image, r);
  const persist::WalReplay replay = persist::parse_wal(image);
  EXPECT_EQ(replay.clean_bytes, image.size());
  EXPECT_EQ(replay.dropped_bytes, 0u);
  ASSERT_EQ(replay.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(replay.records[i] == records[i]) << "record " << i;
  }
}

TEST(WalFormat, TruncationAtEveryOffsetKeepsAnExactPrefix) {
  const auto records = make_wal_fixture();
  std::string image;
  std::vector<std::size_t> boundaries;  // clean prefix sizes
  for (const auto& r : records) {
    persist::append_wal_record(image, r);
    boundaries.push_back(image.size());
  }
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    const persist::WalReplay replay = persist::parse_wal(image.substr(0, cut));
    EXPECT_EQ(replay.clean_bytes + replay.dropped_bytes, cut);
    // The recovered records are exactly those whose frame fits the cut.
    std::size_t expected = 0;
    while (expected < boundaries.size() && boundaries[expected] <= cut) {
      ++expected;
    }
    ASSERT_EQ(replay.records.size(), expected) << "cut " << cut;
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_TRUE(replay.records[i] == records[i])
          << "cut " << cut << " record " << i;
    }
  }
}

TEST(WalFormat, ByteFlipAtEveryOffsetNeverYieldsWrongData) {
  const auto records = make_wal_fixture();
  std::string image;
  for (const auto& r : records) persist::append_wal_record(image, r);
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    std::string tampered = image;
    tampered[pos] ^= 0x41;
    const persist::WalReplay replay = persist::parse_wal(tampered);
    EXPECT_EQ(replay.clean_bytes + replay.dropped_bytes, tampered.size());
    // Never aborts, never invents: whatever survives is a byte-exact prefix.
    ASSERT_LE(replay.records.size(), records.size()) << "pos " << pos;
    for (std::size_t i = 0; i < replay.records.size(); ++i) {
      EXPECT_TRUE(replay.records[i] == records[i])
          << "pos " << pos << " record " << i;
    }
  }
}

// ------------------------------------------------------------------------
// Segment format.
// ------------------------------------------------------------------------

std::vector<persist::SegmentRecord> make_segment_fixture() {
  return {
      {{"vp-oslo", 1}, "DEV-1", TimePoint::from_micros(100), capture_bytes(21, 90)},
      {{"vp-oslo", 4}, "DEV-2", TimePoint::from_micros(200), capture_bytes(22, 30)},
      {{"vp-rio", 2}, "DEV-3", TimePoint::from_micros(300), capture_bytes(23, 150)},
  };
}

TEST(SegmentFormat, BuildParseRoundTripIsCanonical) {
  const auto records = make_segment_fixture();
  const std::string image = persist::build_segment(persist::kTierRaw, records);
  const auto parsed = persist::parse_segment_index(image);
  ASSERT_TRUE(parsed.ok()) << parsed.error().str();
  EXPECT_EQ(parsed.value().tier, persist::kTierRaw);
  ASSERT_EQ(parsed.value().entries.size(), records.size());
  std::vector<persist::SegmentRecord> rebuilt;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& e = parsed.value().entries[i];
    EXPECT_EQ(e.id, records[i].id);
    EXPECT_EQ(e.name, records[i].name);
    const auto payload = persist::segment_capture_bytes(image, e);
    ASSERT_TRUE(payload.ok()) << payload.error().str();
    EXPECT_EQ(payload.value(), records[i].capture);
    rebuilt.push_back({e.id, e.name, e.stored_at,
                       std::string{payload.value()}});
  }
  EXPECT_EQ(persist::build_segment(parsed.value().tier, rebuilt), image);
}

TEST(SegmentFormat, FooterFlipAtEveryOffsetFailsCleanOrChecksums) {
  // Flip every byte of the index + trailer region (the "footer"): the parse
  // either rejects the image, or the per-entry CRCs still police every
  // payload read — corrupted bytes can never surface as sample data.
  const auto records = make_segment_fixture();
  const std::string image = persist::build_segment(persist::kTierSummary,
                                                   records);
  const auto clean = persist::parse_segment_index(image);
  ASSERT_TRUE(clean.ok());
  const std::size_t footer_begin =
      static_cast<std::size_t>(clean.value().entries.back().offset +
                               clean.value().entries.back().length);
  for (std::size_t pos = footer_begin; pos < image.size(); ++pos) {
    std::string tampered = image;
    tampered[pos] ^= 0x5A;
    const auto parsed = persist::parse_segment_index(tampered);
    if (!parsed.ok()) continue;  // clean rejection
    for (const auto& e : parsed.value().entries) {
      const auto payload = persist::segment_capture_bytes(tampered, e);
      if (payload.ok()) {
        EXPECT_EQ(persist::crc32c(payload.value()), e.crc) << "pos " << pos;
      }
    }
  }
}

TEST(SegmentFormat, PayloadFlipIsCaughtByEntryCrc) {
  const auto records = make_segment_fixture();
  const std::string image = persist::build_segment(persist::kTierRaw, records);
  const auto parsed = persist::parse_segment_index(image);
  ASSERT_TRUE(parsed.ok());
  for (const auto& e : parsed.value().entries) {
    for (std::uint64_t delta = 0; delta < e.length;
         delta += std::max<std::uint64_t>(1, e.length / 7)) {
      std::string tampered = image;
      tampered[e.offset + delta] ^= 0x01;
      // The index itself is untouched, so parsing still succeeds...
      const auto reparsed = persist::parse_segment_index(tampered);
      ASSERT_TRUE(reparsed.ok());
      // ...but the flipped entry's payload read must fail its CRC.
      const auto payload = persist::segment_capture_bytes(tampered, e);
      EXPECT_FALSE(payload.ok()) << e.id.str() << " delta " << delta;
    }
  }
}

TEST(SegmentFormat, RejectsNonDenseTiling) {
  // Hand-build an image with a gap between payloads by lying in the index:
  // easiest route is truncating/permuting a real build — here we just check
  // a segment built from records reparses only as-is, and that inserting a
  // byte into the payload region breaks the tiling checks.
  const auto records = make_segment_fixture();
  std::string image = persist::build_segment(persist::kTierRaw, records);
  image.insert(persist::kSegmentMagic.size() + 1 + 5, 1, '\x00');
  EXPECT_FALSE(persist::parse_segment_index(image).ok());
}

TEST(SegmentFormat, RejectsIndexOffsetPastTheEnd) {
  // The trailer's index offset is read from the file. One near 2^64 must be
  // rejected, not wrap the range check and slice past the end.
  const std::string image =
      persist::build_segment(persist::kTierRaw, make_segment_fixture());
  for (const std::uint64_t offset :
       {~std::uint64_t{0}, ~std::uint64_t{0} - 7,
        std::uint64_t{image.size()}}) {
    std::string tampered = image;
    const std::size_t at = tampered.size() - persist::kSegmentTrailerBytes;
    for (std::size_t i = 0; i < 8; ++i) {
      tampered[at + i] = static_cast<char>(offset >> (8 * i));
    }
    EXPECT_FALSE(persist::parse_segment_index(tampered).ok()) << offset;
  }
}

// ------------------------------------------------------------------------
// Manifest format.
// ------------------------------------------------------------------------

TEST(ManifestFormat, RoundTripsAndDetectsCorruption) {
  persist::Manifest manifest;
  manifest.version = 12;
  manifest.next_seq = 99;
  manifest.shards = {
      {{"seg-r-1.blsg", persist::kTierRaw},
       {"seg-s-2.blsg", persist::kTierSummary}},
      {},
      {{"seg-r-3.blsg", persist::kTierRaw}},
  };
  const std::string image = persist::encode_manifest(manifest);
  const auto parsed = persist::parse_manifest(image);
  ASSERT_TRUE(parsed.ok()) << parsed.error().str();
  EXPECT_TRUE(parsed.value() == manifest);
  EXPECT_EQ(persist::encode_manifest(parsed.value()), image);
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    std::string tampered = image;
    tampered[pos] ^= 0x80;
    const auto bad = persist::parse_manifest(tampered);
    // The trailing CRC covers every byte, so any single flip is detected.
    EXPECT_FALSE(bad.ok()) << "pos " << pos;
  }
}

// ------------------------------------------------------------------------
// PersistEngine: recovery, checkpointing, compaction, retention.
// ------------------------------------------------------------------------

TEST(PersistEngine, ShardingIsConsistentAndCovering) {
  const std::string dir = scratch_dir("shard");
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_EQ(engine.shard_count(), 4u);
  std::vector<std::size_t> hits(engine.shard_count(), 0);
  for (int i = 0; i < 64; ++i) {
    const std::string ws = "vp-" + std::to_string(i);
    const std::size_t shard = engine.shard_of(ws);
    ASSERT_LT(shard, engine.shard_count());
    EXPECT_EQ(engine.shard_of(ws), shard) << "unstable hash for " << ws;
    ++hits[shard];
  }
  // The hash must actually spread workspaces around.
  std::size_t used = 0;
  for (const std::size_t h : hits) used += h > 0 ? 1 : 0;
  EXPECT_GE(used, 2u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, AppendsSurviveWithoutWalOrCheckpoint) {
  // An append is committed by its manifest: a store killed after two
  // appends, with no checkpoint and nothing journaled, restores both.
  const std::string dir = scratch_dir("appendrec");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(31, 500));
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    ASSERT_TRUE(engine
                    .append({"vp-a", 1}, "DEV-1",
                            TimePoint::from_micros(1000), cc)
                    .ok());
    ASSERT_TRUE(engine
                    .append({"vp-b", 2}, "DEV-2",
                            TimePoint::from_micros(2000), cc)
                    .ok());
    EXPECT_EQ(engine.stats().wal_appends, 0u);
    EXPECT_EQ(engine.stats().checkpoints, 0u);
  }
  EXPECT_TRUE(files_with_prefix(dir, "wal.log").empty());
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_EQ(engine.size(), 2u);
  EXPECT_EQ(engine.stats().recovered_records, 2u);
  EXPECT_EQ(engine.next_seq(), 3u);
  ASSERT_TRUE(engine.contains({"vp-a", 1}));
  const auto info = engine.info({"vp-a", 1});
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->name, "DEV-1");
  EXPECT_EQ(info->stored_at.us(), 1000);
  EXPECT_FALSE(info->raw_dropped);
  auto loaded = engine.load({"vp-b", 2});
  ASSERT_TRUE(loaded.ok()) << loaded.error().str();
  EXPECT_EQ(loaded.value().serialize(), cc.serialize());
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, AppendWritesEachImageOnceIntoItsOwnSegment) {
  // One write per capture: nothing goes to a WAL, and each append's
  // segment file is, byte for byte, what build_segment makes of that one
  // record (header, image, index and trailer), so segment_bytes is the
  // images plus their headers and footers and nothing else.
  const std::string dir = scratch_dir("onewrite");
  persist::PersistOptions options;
  options.shards = 1;
  ChunkedCapture summary = ChunkedCapture::encode(make_capture(37, 3000));
  summary.drop_raw();
  const ChunkedCapture captures[] = {
      ChunkedCapture::encode(make_capture(36, 9000)), summary,
      ChunkedCapture::encode(make_capture(38, 100), 7)};
  persist::PersistEngine engine{dir, options};
  ASSERT_TRUE(engine.open().ok());
  std::vector<std::string> expected;
  std::uint64_t expected_bytes = 0;
  for (std::uint64_t i = 0; i < std::size(captures); ++i) {
    const CaptureId id{"vp-" + std::to_string(i), i + 1};
    const TimePoint at = TimePoint::from_micros(1000 * (i + 1));
    ASSERT_TRUE(engine.append(id, "DEV", at, captures[i]).ok());
    const std::uint8_t tier = captures[i].raw_available()
                                  ? persist::kTierRaw
                                  : persist::kTierSummary;
    expected.push_back(persist::build_segment(
        tier, {{id, "DEV", at, std::string{captures[i].serialize()}}}));
    expected_bytes += expected.back().size();
  }
  EXPECT_EQ(engine.stats().wal_appends, 0u);
  EXPECT_EQ(engine.stats().wal_bytes, 0u);
  EXPECT_EQ(engine.stats().checkpoints, 0u);
  EXPECT_EQ(engine.stats().segment_flushes, std::size(captures));
  EXPECT_EQ(engine.stats().segment_bytes, expected_bytes);
  // Segment numbers follow append order: seg-r-1, seg-s-2, seg-r-3.
  const fs::path shard = fs::path{dir} / "shard-000";
  EXPECT_TRUE(read_all(shard / "seg-r-1.blsg") == expected[0]);
  EXPECT_TRUE(read_all(shard / "seg-s-2.blsg") == expected[1]);
  EXPECT_TRUE(read_all(shard / "seg-r-3.blsg") == expected[2]);
  EXPECT_EQ(files_with_prefix(dir, "seg-").size(), std::size(captures));
  EXPECT_FALSE(fs::exists(shard / "wal.log"));
  // Each append installed a manifest; only it and its predecessor remain.
  EXPECT_EQ(files_with_prefix(dir, "manifest-"),
            (std::vector<std::string>{"manifest-2", "manifest-3"}));
  const auto info = engine.info({"vp-1", 2});
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->raw_dropped);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, FailedAppendLeavesNoEntryAndItsFileIsCollected) {
  // An append is all or nothing. A directory squatting on the temp path
  // makes the segment write fail, then the manifest install: neither
  // failure may leave an index or catalog entry, and the segment the
  // second one left behind is garbage at the next open.
  const std::string dir = scratch_dir("failappend");
  persist::PersistOptions options;
  options.shards = 1;
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(39, 300));
  const fs::path shard = fs::path{dir} / "shard-000";
  {
    persist::PersistEngine engine{dir, options};
    ASSERT_TRUE(engine.open().ok());
    ASSERT_TRUE(engine.append({"vp-a", 1}, "DEV", TimePoint::epoch(), cc)
                    .ok());
    fs::create_directory(shard / "seg-r-2.blsg.tmp");
    EXPECT_FALSE(
        engine.append({"vp-a", 2}, "DEV", TimePoint::epoch(), cc).ok());
    EXPECT_FALSE(engine.contains({"vp-a", 2}));
    fs::create_directory(fs::path{dir} / "manifest-2.tmp");
    EXPECT_FALSE(
        engine.append({"vp-a", 3}, "DEV", TimePoint::epoch(), cc).ok());
    EXPECT_FALSE(engine.contains({"vp-a", 3}));
    EXPECT_TRUE(fs::exists(shard / "seg-r-3.blsg"));  // renamed, unlisted
    EXPECT_EQ(engine.size(), 1u);
    EXPECT_EQ(engine.next_seq(), 2u);
    fs::remove(fs::path{dir} / "manifest-2.tmp");
    // The next append commits a manifest without the failed segment.
    ASSERT_TRUE(engine.append({"vp-a", 4}, "DEV", TimePoint::epoch(), cc)
                    .ok());
  }
  persist::PersistEngine engine{dir, options};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_EQ(engine.size(), 2u);
  EXPECT_TRUE(engine.contains({"vp-a", 1}));
  EXPECT_TRUE(engine.contains({"vp-a", 4}));
  EXPECT_EQ(files_with_prefix(dir, "seg-"),
            (std::vector<std::string>{"seg-r-1.blsg", "seg-r-4.blsg"}));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, CrashBetweenSegmentRenameAndManifestInstall) {
  // A crash after an append renamed its segment but before its manifest
  // was installed leaves a well-formed segment no manifest lists. It was
  // never acknowledged: open() deletes it and indexes nothing from it.
  const std::string dir = scratch_dir("unlisted");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(40, 200));
  fs::path orphan;
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    ASSERT_TRUE(engine.append({"vp-a", 1}, "DEV", TimePoint::epoch(), cc)
                    .ok());
    orphan = shard_dir(dir, engine, "vp-ghost") / "seg-r-99.blsg";
  }
  {
    std::ofstream out{orphan, std::ios::binary};
    const std::string image = persist::build_segment(
        persist::kTierRaw, {{{"vp-ghost", 7}, "DEV", TimePoint::epoch(),
                             std::string{cc.serialize()}}});
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_FALSE(engine.contains({"vp-ghost", 7}));
  EXPECT_EQ(engine.size(), 1u);
  EXPECT_EQ(engine.next_seq(), 2u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, OpenCollectsTmpLeftovers) {
  // A crash between a temp write and its rename leaves <file>.tmp behind,
  // in a shard directory (segments) or at the root (manifests). open()
  // removes both kinds, so disk usage no longer counts them.
  const std::string dir = scratch_dir("tmpgc");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(41, 200));
  std::uint64_t usage = 0;
  fs::path segment_tmp;
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    ASSERT_TRUE(engine.append({"vp-a", 1}, "DEV", TimePoint::epoch(), cc)
                    .ok());
    usage = engine.disk_usage_bytes();
    segment_tmp = shard_dir(dir, engine, "vp-a") / "seg-r-2.blsg.tmp";
  }
  const fs::path manifest_tmp = fs::path{dir} / "manifest-2.tmp";
  for (const fs::path& path : {segment_tmp, manifest_tmp}) {
    std::ofstream out{path, std::ios::binary};
    out << std::string(4096, 'x');
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_FALSE(fs::exists(segment_tmp));
  EXPECT_FALSE(fs::exists(manifest_tmp));
  EXPECT_EQ(engine.disk_usage_bytes(), usage);
  EXPECT_TRUE(engine.contains({"vp-a", 1}));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, WalHoldsExactlyTheAppendedFramesAndReplays) {
  // Only drop-raw and erase notes reach the WAL: the file must be, byte
  // for byte, the frames append_wal_record builds for them, and replaying
  // them over the appends' segments must restore the store.
  const std::string dir = scratch_dir("wal-bytes");
  persist::PersistOptions options;
  options.shards = 1;
  const ChunkedCapture raw = ChunkedCapture::encode(make_capture(31, 9000));
  ChunkedCapture summary = ChunkedCapture::encode(make_capture(32, 5000));
  summary.drop_raw();
  const ChunkedCapture small = ChunkedCapture::encode(make_capture(33, 100), 7);
  ChunkedCapture raw_dropped = raw;
  raw_dropped.drop_raw();

  std::string expected;
  const auto frame = [&](persist::WalOp op, const CaptureId& id) {
    persist::append_wal_record(expected, persist::WalRecord{op, id});
  };
  {
    persist::PersistEngine engine{dir, options};
    ASSERT_TRUE(engine.open().ok());
    const TimePoint t1 = TimePoint::from_micros(1'000'000);
    const TimePoint t2 = TimePoint::from_micros(2'000'000);
    const TimePoint t3 = TimePoint::from_micros(3'000'000);
    ASSERT_TRUE(engine.append({"vp-a", 1}, "DEV-1", t1, raw).ok());
    ASSERT_TRUE(engine.append({"vp-b", 2}, "DEV-2", t2, summary).ok());
    ASSERT_TRUE(engine.note_drop_raw({"vp-a", 1}).ok());
    frame(persist::WalOp::kDropRaw, {"vp-a", 1});
    ASSERT_TRUE(engine.append({"vp-a", 3}, "", t3, small).ok());
    ASSERT_TRUE(engine.note_drop_raw({"vp-a", 1}).ok());  // dropped: no frame
    ASSERT_TRUE(engine.note_drop_raw({"vp-b", 2}).ok());  // summary: no frame
    ASSERT_TRUE(engine.note_erase({"vp-b", 2}).ok());
    frame(persist::WalOp::kErase, {"vp-b", 2});
    ASSERT_TRUE(engine.note_erase({"vp-z", 9}).ok());  // unknown: no frame
    EXPECT_EQ(engine.stats().wal_appends, 2u);
    EXPECT_EQ(engine.stats().wal_bytes, expected.size());
  }
  const std::string wal = read_all(fs::path{dir} / "shard-000" / "wal.log");
  EXPECT_TRUE(wal == expected) << "wal.log " << wal.size()
                               << " B, frames " << expected.size() << " B";

  persist::PersistEngine reopened{dir, options};
  ASSERT_TRUE(reopened.open().ok());
  EXPECT_EQ(reopened.stats().torn_tail_bytes, 0u);
  ASSERT_EQ(reopened.size(), 2u);
  EXPECT_FALSE(reopened.contains({"vp-b", 2}));
  auto first = reopened.load({"vp-a", 1});
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first.value().serialize(), raw_dropped.serialize());
  auto third = reopened.load({"vp-a", 3});
  ASSERT_TRUE(third.ok()) << third.error().message;
  EXPECT_EQ(third.value().serialize(), small.serialize());
  fs::remove_all(dir);
}

TEST(PersistEngine, CheckpointInstallsManifestAndSurvivesRestart) {
  const std::string dir = scratch_dir("ckpt");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(32, 400));
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    for (std::uint64_t s = 1; s <= 6; ++s) {
      ASSERT_TRUE(engine
                      .append({"vp-" + std::to_string(s % 3), s}, "DEV",
                              TimePoint::from_micros(1000 * s), cc)
                      .ok());
    }
    ASSERT_TRUE(engine.note_drop_raw({"vp-1", 1}).ok());
    ASSERT_TRUE(engine.checkpoint().ok());
    EXPECT_GE(engine.stats().segment_flushes, 1u);
    EXPECT_GE(engine.stats().checkpoints, 1u);
    // The WALs are truncated: a second checkpoint with nothing pending is
    // a no-op (no new manifest version).
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_EQ(engine.size(), 6u);
  EXPECT_EQ(engine.stats().torn_tail_bytes, 0u);
  EXPECT_EQ(engine.next_seq(), 7u);
  const auto dropped = engine.info({"vp-1", 1});
  ASSERT_TRUE(dropped.has_value());
  EXPECT_TRUE(dropped->raw_dropped);
  auto loaded = engine.load({"vp-1", 1});
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().raw_available());
  auto intact = engine.load({"vp-2", 2});
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ(intact.value().serialize(), cc.serialize());
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, CheckpointCausesAreCountedAndLabeled) {
  const std::string dir = scratch_dir("cause");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(60, 200));
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  blab::obs::MetricsRegistry registry;
  engine.attach_metrics(&registry);

  // Each checkpoint has a note to fold; one with nothing to do is not run.
  ASSERT_TRUE(engine.append({"vp-a", 1}, "DEV", TimePoint::from_micros(1), cc)
                  .ok());
  ASSERT_TRUE(engine.note_drop_raw({"vp-a", 1}).ok());
  ASSERT_TRUE(engine.checkpoint(persist::CheckpointCause::kScheduled).ok());
  ASSERT_TRUE(engine.append({"vp-a", 2}, "DEV", TimePoint::from_micros(2), cc)
                  .ok());
  ASSERT_TRUE(engine.note_erase({"vp-a", 2}).ok());
  ASSERT_TRUE(engine.checkpoint().ok());  // default: manual
  ASSERT_TRUE(engine.checkpoint().ok());  // nothing to fold

  const auto& by_cause = engine.stats().checkpoints_by_cause;
  EXPECT_EQ(by_cause[static_cast<std::size_t>(
                persist::CheckpointCause::kScheduled)],
            1u);
  EXPECT_EQ(by_cause[static_cast<std::size_t>(
                persist::CheckpointCause::kManual)],
            1u);
  EXPECT_EQ(engine.stats().checkpoints, 2u);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.value_or("blab_persist_checkpoints_total",
                          {{"cause", "scheduled"}}),
            1.0);
  EXPECT_EQ(snap.value_or("blab_persist_checkpoints_total",
                          {{"cause", "manual"}}),
            1.0);
  EXPECT_STREQ(
      persist::checkpoint_cause_name(persist::CheckpointCause::kRetention),
      "retention");
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, ScanCatalogVisitsWindowAscendingById) {
  const std::string dir = scratch_dir("scancat");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(61, 100));
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  // Insert out of id order with distinct stored_at stamps.
  ASSERT_TRUE(engine.append({"vp-b", 2}, "DEV",
                            TimePoint::from_micros(2000), cc).ok());
  ASSERT_TRUE(engine.append({"vp-a", 1}, "DEV",
                            TimePoint::from_micros(1000), cc).ok());
  ASSERT_TRUE(engine.append({"vp-c", 3}, "DEV",
                            TimePoint::from_micros(3000), cc).ok());

  std::vector<CaptureId> seen;
  engine.scan_catalog(TimePoint::from_micros(0), TimePoint::max(),
                      [&](const persist::PersistEngine::EntryInfo& e) {
                        seen.push_back(e.id);
                      });
  EXPECT_EQ(seen, (std::vector<CaptureId>{
                      {"vp-a", 1}, {"vp-b", 2}, {"vp-c", 3}}));

  // [t0, t1) half-open window on stored_at.
  seen.clear();
  engine.scan_catalog(TimePoint::from_micros(1000),
                      TimePoint::from_micros(3000),
                      [&](const persist::PersistEngine::EntryInfo& e) {
                        seen.push_back(e.id);
                      });
  EXPECT_EQ(seen, (std::vector<CaptureId>{{"vp-a", 1}, {"vp-b", 2}}));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, CrashBetweenWalAndCheckpointReplaysIdempotently) {
  // A crash between a checkpoint's manifest install and its WAL truncation
  // leaves notes the installed manifest has already folded. Replaying them
  // must change nothing.
  const std::string dir = scratch_dir("idem");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(33, 200));
  ChunkedCapture summary = cc;
  summary.drop_raw();
  std::string wal;
  fs::path wal_path;
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    for (std::uint64_t seq = 1; seq <= 2; ++seq) {
      ASSERT_TRUE(engine
                      .append({"vp-x", seq}, "DEV",
                              TimePoint::from_micros(500), cc)
                      .ok());
    }
    ASSERT_TRUE(engine.note_drop_raw({"vp-x", 1}).ok());
    ASSERT_TRUE(engine.note_erase({"vp-x", 2}).ok());
    wal_path = shard_dir(dir, engine, "vp-x") / "wal.log";
    wal = read_all(wal_path);
    ASSERT_FALSE(wal.empty());
    ASSERT_TRUE(engine.checkpoint().ok());
    EXPECT_EQ(fs::file_size(wal_path), 0u);
  }
  // Put the folded notes back, as if the truncation never happened.
  {
    std::ofstream out{wal_path, std::ios::binary | std::ios::trunc};
    out.write(wal.data(), static_cast<std::streamsize>(wal.size()));
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_EQ(engine.size(), 1u);
  EXPECT_FALSE(engine.contains({"vp-x", 2}));
  EXPECT_EQ(engine.next_seq(), 3u);
  auto loaded = engine.load({"vp-x", 1});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().serialize(), summary.serialize());
  // The replayed notes dirtied nothing: folding them rewrites no segment.
  const auto compactions = engine.stats().compactions;
  ASSERT_TRUE(engine.checkpoint().ok());
  EXPECT_EQ(engine.stats().compactions, compactions);
  EXPECT_EQ(fs::file_size(wal_path), 0u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, CorruptSegmentTrailerDropsOnlyThatSegment) {
  const std::string dir = scratch_dir("seggone");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(34, 100));
  std::string victim_ws;
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    // Two workspaces on different shards, so they land in different files.
    victim_ws = "vp-a";
    std::string other = "vp-b";
    for (int i = 0; engine.shard_of(other) == engine.shard_of(victim_ws);
         ++i) {
      other = "vp-" + std::to_string(i);
    }
    ASSERT_TRUE(engine
                    .append({victim_ws, 1}, "DEV",
                            TimePoint::from_micros(100), cc)
                    .ok());
    ASSERT_TRUE(engine
                    .append({other, 2}, "DEV", TimePoint::from_micros(200),
                            cc)
                    .ok());
    ASSERT_TRUE(engine.checkpoint().ok());
  }
  // Smash the victim shard's segment trailer.
  {
    persist::PersistEngine probe{dir};
    ASSERT_TRUE(probe.open().ok());
    char name[32];
    std::snprintf(name, sizeof name, "shard-%03zu",
                  probe.shard_of(victim_ws));
    for (const auto& entry :
         fs::directory_iterator(fs::path{dir} / name)) {
      if (entry.path().extension() != ".blsg") continue;
      std::fstream f{entry.path(),
                     std::ios::binary | std::ios::in | std::ios::out};
      f.seekp(-4, std::ios::end);
      f.write("XXXX", 4);
    }
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());  // recovery proceeds, with a loss report
  EXPECT_EQ(engine.stats().segments_dropped, 1u);
  EXPECT_FALSE(engine.contains({victim_ws, 1}));
  EXPECT_EQ(engine.size(), 1u);  // the other shard's record is untouched
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, CorruptSegmentCaptureFailsLoadAndCheckpoint) {
  // A byte flipped inside a raw segment's capture, after the append wrote
  // it, is caught on both read-backs against the CRC its index entry
  // recorded: load() and the checkpoint that would demote it into a
  // summary segment. The failed checkpoint installs no manifest, writes
  // no segment and keeps the WAL. Appended and recovered entries both.
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(35, 400));
  const std::size_t capture_size = cc.serialize().size();
  const CaptureId id{"vp-a", 1};
  for (const bool recovered : {false, true}) {
    SCOPED_TRACE(recovered ? "recovered" : "appended");
    const std::string dir = scratch_dir("segcrc");
    auto engine = std::make_unique<persist::PersistEngine>(dir);
    ASSERT_TRUE(engine->open().ok());
    ASSERT_TRUE(
        engine->append(id, "DEV", TimePoint::from_micros(100), cc).ok());
    const fs::path shard = shard_dir(dir, *engine, id.workspace);
    const fs::path segment = shard / "seg-r-1.blsg";
    ASSERT_TRUE(fs::exists(segment));
    if (recovered) {
      engine = std::make_unique<persist::PersistEngine>(dir);
      ASSERT_TRUE(engine->open().ok());
    }
    ASSERT_TRUE(engine->load(id).ok());
    {
      const auto flip_at = static_cast<std::streamoff>(
          persist::kSegmentHeaderBytes + capture_size / 2);
      std::fstream f{segment, std::ios::binary | std::ios::in | std::ios::out};
      f.seekg(flip_at);
      const int byte = f.get();
      f.seekp(flip_at);
      f.put(static_cast<char>(byte ^ 0x40));
    }

    const auto loaded = engine->load(id);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, blab::util::ErrorCode::kUnavailable);
    ASSERT_TRUE(engine->note_drop_raw(id).ok());
    const auto wal_size = fs::file_size(shard / "wal.log");
    const auto manifests = files_with_prefix(dir, "manifest-");
    const auto st = engine->checkpoint();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, blab::util::ErrorCode::kUnavailable);
    EXPECT_EQ(fs::file_size(shard / "wal.log"), wal_size);
    EXPECT_EQ(files_with_prefix(dir, "manifest-"), manifests);
    EXPECT_EQ(files_with_prefix(dir, "seg-"),
              std::vector<std::string>{"seg-r-1.blsg"});
    engine.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
}

TEST(PersistEngine, RetentionDemotesThenErasesAndReclaimsBytes) {
  const std::string dir = scratch_dir("ttl");
  RetentionPolicy policy;
  policy.raw_ttl = Duration::minutes(30);
  policy.summary_ttl = Duration::minutes(240);
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(35, 2000));
  ASSERT_TRUE(
      engine.append({"vp-old", 1}, "DEV", TimePoint::epoch(), cc).ok());
  ASSERT_TRUE(engine
                  .append({"vp-new", 2}, "DEV",
                          TimePoint::epoch() + Duration::minutes(200), cc)
                  .ok());
  ASSERT_TRUE(engine.checkpoint().ok());
  const std::uint64_t before = engine.disk_usage_bytes();

  // vp-old is 210 minutes past its raw TTL; vp-new is only 10 minutes old.
  const TimePoint t1 = TimePoint::epoch() + Duration::minutes(210);
  const std::uint64_t reclaimed1 = engine.run_retention(t1, policy);
  EXPECT_GT(reclaimed1, 0u);
  EXPECT_LT(engine.disk_usage_bytes(), before);
  ASSERT_TRUE(engine.contains({"vp-old", 1}));
  auto demoted = engine.load({"vp-old", 1});
  ASSERT_TRUE(demoted.ok());
  EXPECT_FALSE(demoted.value().raw_available());
  auto fresh = engine.load({"vp-new", 2});
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.value().raw_available());

  // Past the summary TTL: vp-old disappears entirely.
  const TimePoint t2 = TimePoint::epoch() + Duration::minutes(241);
  (void)engine.run_retention(t2, policy);
  EXPECT_FALSE(engine.contains({"vp-old", 1}));
  EXPECT_TRUE(engine.contains({"vp-new", 2}));
  EXPECT_GE(engine.stats().retention_bytes_reclaimed, reclaimed1);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ------------------------------------------------------------------------
// CaptureStore integration: archive-through, cold queries, source_of.
// ------------------------------------------------------------------------

TEST(PersistentStore, ColdQueriesAnswerIdenticallyAfterRestart) {
  const std::string dir = scratch_dir("cold");
  const Capture original = make_capture(41, 1200);
  std::string warm_answers;
  CaptureId id;
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    CaptureStore store;
    store.attach_persistence(&engine);
    id = store.append("vp-q", "DEV-9", original, TimePoint::epoch());
    auto range = store.range(id, TimePoint::epoch(), TimePoint::max());
    ASSERT_TRUE(range.ok());
    ASSERT_EQ(range.value().sample_count(), original.sample_count());
    auto mean = store.mean_ma(id);
    auto energy = store.energy_mwh(id);
    ASSERT_TRUE(mean.ok());
    ASSERT_TRUE(energy.ok());
    warm_answers = std::to_string(mean.value()) + "|" +
                   std::to_string(energy.value());
    auto src = store.source_of(id);
    ASSERT_TRUE(src.ok());
    EXPECT_EQ(src.value(), CaptureSource::kMemory);
  }
  // Restart: a fresh engine + store on the same directory. The record is
  // cold (disk-only) until a query warms it.
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  CaptureStore store;
  store.attach_persistence(&engine);
  EXPECT_TRUE(store.contains(id));
  EXPECT_EQ(store.find(id), nullptr);  // warm lookup misses
  auto src = store.source_of(id);
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(src.value(), CaptureSource::kDisk);
  ASSERT_EQ(store.list("vp-q").size(), 1u);
  EXPECT_EQ(store.workspaces(), std::vector<std::string>{"vp-q"});
  EXPECT_EQ(store.name_of(id).value_or(""), "DEV-9");

  auto range = store.range(id, TimePoint::epoch(), TimePoint::max());
  ASSERT_TRUE(range.ok()) << range.error().str();
  EXPECT_EQ(range.value().samples_ma(), original.samples_ma());
  auto mean = store.mean_ma(id);
  auto energy = store.energy_mwh(id);
  ASSERT_TRUE(mean.ok());
  ASSERT_TRUE(energy.ok());
  EXPECT_EQ(std::to_string(mean.value()) + "|" +
                std::to_string(energy.value()),
            warm_answers);
  EXPECT_EQ(store.stats().disk_loads, 1u);  // one cold load served them all
  // Warmed now: the record is resident again.
  auto src2 = store.source_of(id);
  ASSERT_TRUE(src2.ok());
  EXPECT_EQ(src2.value(), CaptureSource::kMemory);
  // And the sequence counter resumed past the persisted record.
  const CaptureId id2 =
      store.append("vp-q", "DEV-9", make_capture(42, 10), TimePoint::epoch());
  EXPECT_GT(id2.seq, id.seq);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistentStore, SourceOfReportsTierAfterRawDrop) {
  const std::string dir = scratch_dir("tier");
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  CaptureStore store;
  store.attach_persistence(&engine);
  const CaptureId id =
      store.append("vp-t", "DEV", make_capture(43, 300), TimePoint::epoch());
  ASSERT_EQ(store.drop_workspace_raw("vp-t"), 1u);
  auto src = store.source_of(id);
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(src.value(), CaptureSource::kTier);
  EXPECT_STREQ(blab::store::capture_source_name(src.value()), "tier");
  // The purge was journaled: a restart still has no raw tier.
  persist::PersistEngine engine2{dir};
  ASSERT_TRUE(engine2.open().ok());
  auto loaded = engine2.load(id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().raw_available());
  EXPECT_FALSE(store.source_of({"vp-t", 999}).ok());
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
