// Durable capture store: CRC32C, WAL framing and torn-tail tolerance,
// segment/manifest formats, the PersistEngine recovery path (WAL replay,
// manifest installs, compaction, retention), and the CaptureStore
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
  std::vector<persist::WalRecord> records;
  persist::WalRecord a;
  a.op = persist::WalOp::kAppend;
  a.id = {"vp-oslo", 3};
  a.name = "DEV-1";
  a.stored_at = TimePoint::from_micros(1'500'000);
  a.capture = capture_bytes(11, 120);
  records.push_back(a);
  persist::WalRecord b;
  b.op = persist::WalOp::kDropRaw;
  b.id = {"vp-oslo", 3};
  records.push_back(b);
  persist::WalRecord c;
  c.op = persist::WalOp::kAppend;
  c.id = {"vp-rio", 7};
  c.name = "DEV-2";
  c.stored_at = TimePoint::from_micros(2'750'000);
  c.capture = capture_bytes(12, 64);
  records.push_back(c);
  persist::WalRecord d;
  d.op = persist::WalOp::kErase;
  d.id = {"vp-rio", 2};
  records.push_back(d);
  return records;
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

TEST(Crc32c, CombineMatchesConcatenation) {
  // crc32c_combine only does polynomial arithmetic on the two CRCs, so it
  // must agree with whichever implementation computed them.
  blab::util::Rng rng{74};
  const std::string big = random_bytes(rng, 3u << 20);
  for (const CrcPath& path : kCrcPaths) {
    SCOPED_TRACE(path.name);
    const auto combined = [&](std::string_view a, std::string_view b) {
      return persist::crc32c_combine(path.fn(a, 0), path.fn(b, 0), b.size());
    };
    // Every split, empty halves included, of random buffers of 0-64 bytes.
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string bytes = random_bytes(rng, len);
      const std::string_view view{bytes};
      const std::uint32_t whole = path.fn(view, 0);
      for (std::size_t cut = 0; cut <= len; ++cut) {
        ASSERT_EQ(combined(view.substr(0, cut), view.substr(cut)), whole)
            << "length " << len << " split at " << cut;
      }
    }
    // A capture-sized buffer: both empty-half splits and random ones.
    const std::string_view view{big};
    const std::uint32_t whole = path.fn(view, 0);
    std::vector<std::size_t> cuts{0, view.size()};
    for (int i = 0; i < 6; ++i) {
      cuts.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(view.size()))));
    }
    for (std::size_t cut : cuts) {
      EXPECT_EQ(combined(view.substr(0, cut), view.substr(cut)), whole)
          << "split at " << cut;
    }
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
    // capture_offset lets the engine re-read payloads lazily.
    EXPECT_EQ(image.substr(replay.records[i].capture_offset,
                           replay.records[i].capture.size()),
              records[i].capture)
        << "record " << i;
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
  // The ring must actually spread workspaces around.
  std::size_t used = 0;
  for (const std::size_t h : hits) used += h > 0 ? 1 : 0;
  EXPECT_GE(used, 2u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, WalOnlyRecoveryRestoresEverything) {
  const std::string dir = scratch_dir("walrec");
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
    EXPECT_EQ(engine.stats().wal_appends, 2u);
    // No checkpoint: everything lives in the WALs when the engine dies.
  }
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

TEST(PersistEngine, WalHoldsExactlyTheAppendedFramesAndReplays) {
  // Appends journal the capture image by reference with a combined frame
  // CRC; the file must still be, byte for byte, the frames
  // append_wal_record builds from whole records.
  const std::string dir = scratch_dir("wal-bytes");
  persist::PersistOptions options;
  options.shards = 1;
  options.wal_checkpoint_bytes = std::size_t{1} << 40;  // never checkpoint
  const ChunkedCapture raw = ChunkedCapture::encode(make_capture(31, 9000));
  ChunkedCapture summary = ChunkedCapture::encode(make_capture(32, 5000));
  summary.drop_raw();
  const ChunkedCapture small = ChunkedCapture::encode(make_capture(33, 100), 7);
  ChunkedCapture raw_dropped = raw;
  raw_dropped.drop_raw();

  std::string expected;
  const auto frame = [&](persist::WalOp op, const CaptureId& id,
                         const std::string& name, TimePoint at,
                         const ChunkedCapture* cc) {
    persist::WalRecord record;
    record.op = op;
    record.id = id;
    record.name = name;
    record.stored_at = at;
    if (cc != nullptr) record.capture = cc->serialize();
    persist::append_wal_record(expected, record);
  };
  {
    persist::PersistEngine engine{dir, options};
    ASSERT_TRUE(engine.open().ok());
    const TimePoint t1 = TimePoint::from_micros(1'000'000);
    const TimePoint t2 = TimePoint::from_micros(2'000'000);
    const TimePoint t3 = TimePoint::from_micros(3'000'000);
    ASSERT_TRUE(engine.append({"vp-a", 1}, "DEV-1", t1, raw).ok());
    frame(persist::WalOp::kAppend, {"vp-a", 1}, "DEV-1", t1, &raw);
    ASSERT_TRUE(engine.append({"vp-b", 2}, "DEV-2", t2, summary).ok());
    frame(persist::WalOp::kAppend, {"vp-b", 2}, "DEV-2", t2, &summary);
    ASSERT_TRUE(engine.note_drop_raw({"vp-a", 1}).ok());
    frame(persist::WalOp::kDropRaw, {"vp-a", 1}, "", TimePoint::epoch(),
          nullptr);
    ASSERT_TRUE(engine.append({"vp-a", 3}, "", t3, small).ok());
    frame(persist::WalOp::kAppend, {"vp-a", 3}, "", t3, &small);
    ASSERT_TRUE(engine.note_erase({"vp-b", 2}).ok());
    frame(persist::WalOp::kErase, {"vp-b", 2}, "", TimePoint::epoch(),
          nullptr);
    ASSERT_TRUE(engine.note_erase({"vp-z", 9}).ok());  // unknown: no frame
    EXPECT_EQ(engine.stats().wal_appends, 5u);
    EXPECT_EQ(engine.stats().wal_bytes, expected.size());
  }
  std::ifstream in{dir + "/shard-000/wal.log", std::ios::binary};
  const std::string wal{std::istreambuf_iterator<char>{in},
                        std::istreambuf_iterator<char>{}};
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

  ASSERT_TRUE(engine.append({"vp-a", 1}, "DEV", TimePoint::from_micros(1), cc)
                  .ok());
  ASSERT_TRUE(engine.checkpoint(persist::CheckpointCause::kScheduled).ok());
  ASSERT_TRUE(engine.append({"vp-a", 2}, "DEV", TimePoint::from_micros(2), cc)
                  .ok());
  ASSERT_TRUE(engine.checkpoint().ok());  // default: manual

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
  const std::string dir = scratch_dir("idem");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(33, 200));
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    ASSERT_TRUE(engine
                    .append({"vp-x", 1}, "DEV",
                            TimePoint::from_micros(500), cc)
                    .ok());
    ASSERT_TRUE(engine.checkpoint().ok());
  }
  // Simulate "crash between manifest install and WAL truncation": re-append
  // the same record to the WAL behind the engine's back.
  {
    persist::PersistEngine probe{dir};
    ASSERT_TRUE(probe.open().ok());
    const std::size_t shard = probe.shard_of("vp-x");
    char name[32];
    std::snprintf(name, sizeof name, "shard-%03zu", shard);
    persist::WalRecord dup;
    dup.op = persist::WalOp::kAppend;
    dup.id = {"vp-x", 1};
    dup.name = "DEV";
    dup.stored_at = TimePoint::from_micros(500);
    dup.capture = cc.serialize();
    std::string frame;
    persist::append_wal_record(frame, dup);
    std::ofstream out{fs::path{dir} / name / "wal.log",
                      std::ios::binary | std::ios::app};
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_EQ(engine.size(), 1u);  // the duplicate replay was a no-op
  auto loaded = engine.load({"vp-x", 1});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().serialize(), cc.serialize());
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

TEST(PersistEngine, CorruptWalCaptureFailsLoadAndCheckpoint) {
  // A capture still in the WAL is checked on both read-backs, load() and
  // the checkpoint that would seal it into a segment, against the CRC its
  // index entry recorded at append or at WAL replay. Raw-dropped captures
  // take the checkpoint's demotion path, so both kinds are covered. The
  // failed checkpoint writes no segment or manifest and keeps the WAL.
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(35, 400));
  const std::size_t capture_size = cc.serialize().size();
  const CaptureId id{"vp-a", 1};
  for (const bool replayed : {false, true}) {
    for (const bool raw_dropped : {false, true}) {
      SCOPED_TRACE(std::string{replayed ? "replayed" : "appended"} +
                   (raw_dropped ? ", raw dropped" : ", raw kept"));
      const std::string dir = scratch_dir("walcrc");
      auto engine = std::make_unique<persist::PersistEngine>(dir);
      ASSERT_TRUE(engine->open().ok());
      ASSERT_TRUE(
          engine->append(id, "DEV", TimePoint::from_micros(100), cc).ok());
      char name[32];
      std::snprintf(name, sizeof name, "shard-%03zu",
                    engine->shard_of(id.workspace));
      const fs::path wal = fs::path{dir} / name / "wal.log";
      // The capture bytes end the shard's first and only append frame.
      const auto flip_at =
          static_cast<std::streamoff>(fs::file_size(wal) - capture_size / 2);
      if (raw_dropped) {
        ASSERT_TRUE(engine->note_drop_raw(id).ok());
      }
      if (replayed) {
        engine = std::make_unique<persist::PersistEngine>(dir);
        ASSERT_TRUE(engine->open().ok());
      }
      ASSERT_TRUE(engine->load(id).ok());
      {
        std::fstream f{wal, std::ios::binary | std::ios::in | std::ios::out};
        f.seekg(flip_at);
        const int byte = f.get();
        f.seekp(flip_at);
        f.put(static_cast<char>(byte ^ 0x40));
      }
      const auto wal_size = fs::file_size(wal);

      const auto loaded = engine->load(id);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.error().code, blab::util::ErrorCode::kUnavailable);
      const auto st = engine->checkpoint();
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.error().code, blab::util::ErrorCode::kUnavailable);
      EXPECT_EQ(fs::file_size(wal), wal_size);
      for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        const std::string file = entry.path().filename().string();
        EXPECT_NE(file.rfind("manifest-", 0), 0u) << file;
        EXPECT_NE(entry.path().extension(), ".blsg") << file;
      }
      engine.reset();
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
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
