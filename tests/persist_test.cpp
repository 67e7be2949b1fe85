// Durable capture store: CRC32C, segment/manifest formats, the
// PersistEngine write and recovery paths (one capture per segment, every
// change committed by one manifest, demotion, retention, garbage
// collection), and the CaptureStore integration (archive-through appends,
// transparent cold queries).
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
#include <map>
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

/// Names of the files under `dir` that start with `prefix`, sorted.
std::vector<std::string> files_with_prefix(const fs::path& dir,
                                           const std::string& prefix) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
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

persist::Manifest make_manifest_fixture() {
  persist::Manifest manifest;
  manifest.version = 12;
  manifest.next_seq = 99;
  manifest.segments = {{"seg-r-1.blsg", persist::kTierRaw},
                       {"seg-r-2.blsg", persist::kTierSummary},
                       {"seg-s-3.blsg", persist::kTierSummary}};
  return manifest;
}

TEST(ManifestFormat, RoundTripsAndDetectsCorruption) {
  const persist::Manifest manifest = make_manifest_fixture();
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

TEST(ManifestFormat, TruncationAtEveryOffsetIsRejected) {
  // A manifest is the store's only commit record. Any prefix of one is
  // rejected, so recovery falls back to the previous version rather than
  // reading a partial catalog.
  const std::string image = persist::encode_manifest(make_manifest_fixture());
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    EXPECT_FALSE(persist::parse_manifest(image.substr(0, cut)).ok())
        << "cut " << cut;
  }
}

// ------------------------------------------------------------------------
// PersistEngine: recovery, commits, demotion, retention.
// ------------------------------------------------------------------------

/// The store's layout: regular files only, each a seg-{r,s}-<n>.blsg
/// segment or one of at most two manifest-<v> files.
void expect_flat_store(const fs::path& dir) {
  std::size_t manifests = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(entry.is_regular_file()) << name;
    if (name.starts_with("manifest-")) {
      ++manifests;
      continue;
    }
    EXPECT_TRUE((name.starts_with("seg-r-") || name.starts_with("seg-s-")) &&
                name.ends_with(".blsg"))
        << name;
  }
  EXPECT_LE(manifests, 2u);
}

/// Requires every segment file in `dir` to be, byte for byte, what
/// build_segment makes of its one capture: the record's raw image in a
/// seg-r file, its summary image in a seg-s file. Returns each file's id.
std::map<std::string, CaptureId> expect_canonical_segments(
    const fs::path& dir,
    const std::map<CaptureId, persist::SegmentRecord>& records) {
  std::map<std::string, CaptureId> found;
  for (const std::string& file : files_with_prefix(dir, "seg-")) {
    const std::string image = read_all(dir / file);
    const auto parsed = persist::parse_segment_index(image);
    if (!parsed.ok() || parsed.value().entries.size() != 1) {
      ADD_FAILURE() << file << " does not hold exactly one capture";
      continue;
    }
    const CaptureId& id = parsed.value().entries[0].id;
    const auto it = records.find(id);
    if (it == records.end()) {
      ADD_FAILURE() << file << " holds unexpected " << id.str();
      continue;
    }
    const persist::SegmentRecord& r = it->second;
    const std::uint8_t tier =
        file.starts_with("seg-r-") ? persist::kTierRaw : persist::kTierSummary;
    const std::string capture =
        tier == persist::kTierRaw
            ? r.capture
            : ChunkedCapture::summary_image(r.capture).value();
    EXPECT_TRUE(image == persist::build_segment(
                             tier, {{r.id, r.name, r.stored_at, capture}}))
        << file;
    found.emplace(file, id);
  }
  return found;
}

TEST(PersistEngine, StoreIsOneFlatDirectory) {
  // Appends, drops, erases and checkpoints, through several restarts, leave
  // nothing but segment files and the last two manifests in the store's
  // own directory.
  const std::string dir = scratch_dir("flat");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(30, 300));
  const auto id_of = [](std::uint64_t seq) {
    return CaptureId{"vp-" + std::to_string(seq % 3), seq};
  };
  for (std::uint64_t round = 0; round < 3; ++round) {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    for (std::uint64_t seq = round * 4 + 1; seq <= round * 4 + 4; ++seq) {
      ASSERT_TRUE(
          engine.append(id_of(seq), "DEV", TimePoint::from_micros(seq), cc)
              .ok());
    }
    ASSERT_TRUE(engine.drop_raw({id_of(round * 4 + 1)}).ok());
    ASSERT_TRUE(engine.erase({id_of(round * 4 + 2)}).ok());
    expect_flat_store(dir);
    ASSERT_TRUE(engine.checkpoint().ok());
    expect_flat_store(dir);
    EXPECT_EQ(engine.size(), 3 * (round + 1));
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, AppendsSurviveWithoutWalOrCheckpoint) {
  // An append is committed by its manifest: a store killed after two
  // appends, with no checkpoint, restores both.
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
    EXPECT_EQ(engine.stats().manifest_installs, 2u);
    EXPECT_EQ(engine.stats().checkpoints, 0u);
    // The same id again is refused and commits nothing.
    EXPECT_EQ(engine.append({"vp-b", 2}, "DEV-2", TimePoint::epoch(), cc)
                  .error()
                  .code,
              blab::util::ErrorCode::kAlreadyExists);
    EXPECT_EQ(engine.stats().manifest_installs, 2u);
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

TEST(PersistEngine, AppendWritesEachImageOnceIntoItsOwnSegment) {
  // One write per capture: each append's segment file is, byte for byte,
  // what build_segment makes of that one record (header, image, index and
  // trailer), so segment_bytes is the images plus their headers and
  // footers and nothing else.
  const std::string dir = scratch_dir("onewrite");
  ChunkedCapture summary = ChunkedCapture::encode(make_capture(37, 3000));
  summary.drop_raw();
  const ChunkedCapture captures[] = {
      ChunkedCapture::encode(make_capture(36, 9000)), summary,
      ChunkedCapture::encode(make_capture(38, 100), 7)};
  persist::PersistEngine engine{dir};
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
  EXPECT_EQ(engine.stats().manifest_installs, std::size(captures));
  EXPECT_EQ(engine.stats().checkpoints, 0u);
  EXPECT_EQ(engine.stats().segment_flushes, std::size(captures));
  EXPECT_EQ(engine.stats().segment_bytes, expected_bytes);
  // Segment numbers follow append order: seg-r-1, seg-s-2, seg-r-3.
  const fs::path root{dir};
  EXPECT_TRUE(read_all(root / "seg-r-1.blsg") == expected[0]);
  EXPECT_TRUE(read_all(root / "seg-s-2.blsg") == expected[1]);
  EXPECT_TRUE(read_all(root / "seg-r-3.blsg") == expected[2]);
  EXPECT_EQ(files_with_prefix(dir, "seg-").size(), std::size(captures));
  // Each append installed a manifest; only it and its predecessor remain.
  EXPECT_EQ(files_with_prefix(dir, "manifest-"),
            (std::vector<std::string>{"manifest-2", "manifest-3"}));
  expect_flat_store(dir);
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
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(39, 300));
  const fs::path root{dir};
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    ASSERT_TRUE(engine.append({"vp-a", 1}, "DEV", TimePoint::epoch(), cc)
                    .ok());
    fs::create_directory(root / "seg-r-2.blsg.tmp");
    EXPECT_FALSE(
        engine.append({"vp-a", 2}, "DEV", TimePoint::epoch(), cc).ok());
    EXPECT_FALSE(engine.contains({"vp-a", 2}));
    fs::create_directory(root / "manifest-2.tmp");
    EXPECT_FALSE(
        engine.append({"vp-a", 3}, "DEV", TimePoint::epoch(), cc).ok());
    EXPECT_FALSE(engine.contains({"vp-a", 3}));
    EXPECT_TRUE(fs::exists(root / "seg-r-3.blsg"));  // renamed, unlisted
    EXPECT_EQ(engine.size(), 1u);
    EXPECT_EQ(engine.next_seq(), 2u);
    fs::remove(root / "manifest-2.tmp");
    // The next append commits a manifest without the failed segment.
    ASSERT_TRUE(engine.append({"vp-a", 4}, "DEV", TimePoint::epoch(), cc)
                    .ok());
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_EQ(engine.size(), 2u);
  EXPECT_TRUE(engine.contains({"vp-a", 1}));
  EXPECT_TRUE(engine.contains({"vp-a", 4}));
  EXPECT_EQ(files_with_prefix(dir, "seg-"),
            (std::vector<std::string>{"seg-r-1.blsg", "seg-r-4.blsg"}));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, FailedInstallLeavesIndexAndCatalogUnchanged) {
  // A directory squatting on manifest-<v+1>.tmp fails the next install.
  // A drop, an erase and a demoting checkpoint that cannot commit leave
  // the index, the catalog and the files exactly as they were; once the
  // squatter is gone each commits with one manifest.
  const std::string dir = scratch_dir("failinstall");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(44, 300));
  const fs::path root{dir};
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(engine
                    .append({"vp-a", seq}, "DEV", TimePoint::from_micros(seq),
                            cc)
                    .ok());
  }
  ASSERT_TRUE(engine.drop_raw({{"vp-a", 3}}).ok());  // manifest-4
  const auto catalog = [&engine] {
    std::string out;
    engine.scan_catalog(TimePoint::epoch(), TimePoint::max(),
                        [&out](const persist::PersistEngine::EntryInfo& e) {
                          out += e.id.str() + (e.raw_dropped ? " s;" : " r;");
                        });
    return out;
  };
  fs::create_directory(root / "manifest-5.tmp");
  const std::string before = catalog();
  const auto files = files_with_prefix(dir, "");
  const auto installs = engine.stats().manifest_installs;

  EXPECT_FALSE(engine.drop_raw({{"vp-a", 1}}).ok());
  EXPECT_FALSE(engine.erase({{"vp-a", 2}}).ok());
  EXPECT_FALSE(engine.checkpoint().ok());
  EXPECT_EQ(catalog(), before);
  EXPECT_EQ(engine.size(), 3u);
  EXPECT_EQ(engine.stats().manifest_installs, installs);
  EXPECT_EQ(engine.stats().checkpoints, 0u);
  // The checkpoint's summary segment was written, then left unlisted.
  auto after = files_with_prefix(dir, "");
  after.erase(std::remove(after.begin(), after.end(), "seg-s-4.blsg"),
              after.end());
  EXPECT_EQ(after, files);
  auto raw = engine.load({"vp-a", 1});
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw.value().raw_available());
  ASSERT_TRUE(engine.load({"vp-a", 3}).ok());

  fs::remove(root / "manifest-5.tmp");
  ASSERT_TRUE(engine.drop_raw({{"vp-a", 1}}).ok());
  ASSERT_TRUE(engine.erase({{"vp-a", 2}}).ok());
  ASSERT_TRUE(engine.checkpoint().ok());
  EXPECT_EQ(engine.stats().manifest_installs, installs + 3);
  EXPECT_EQ(catalog(), "vp-a#1 s;vp-a#3 s;");
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, CrashBetweenSegmentRenameAndManifestInstall) {
  // A crash after an append renamed its segment but before its manifest
  // was installed leaves a well-formed segment no manifest lists. It was
  // never acknowledged: open() deletes it and indexes nothing from it.
  const std::string dir = scratch_dir("unlisted");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(40, 200));
  const fs::path orphan = fs::path{dir} / "seg-r-99.blsg";
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    ASSERT_TRUE(engine.append({"vp-a", 1}, "DEV", TimePoint::epoch(), cc)
                    .ok());
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
  // for a segment or a manifest. open() removes both kinds, so disk usage
  // no longer counts them.
  const std::string dir = scratch_dir("tmpgc");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(41, 200));
  std::uint64_t usage = 0;
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    ASSERT_TRUE(engine.append({"vp-a", 1}, "DEV", TimePoint::epoch(), cc)
                    .ok());
    usage = engine.disk_usage_bytes();
  }
  const fs::path segment_tmp = fs::path{dir} / "seg-r-2.blsg.tmp";
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

TEST(PersistEngine, DropAndEraseInstallOneManifestPerCall) {
  // Each drop or erase call commits all of its ids with exactly one
  // manifest install, whatever their number; a call that changes nothing
  // (no ids, unknown ids, drops of captures already summary) installs
  // none. Erased files are gone once the call returns; dropped ones stay
  // raw segments until a checkpoint.
  const std::string dir = scratch_dir("onecommit");
  const ChunkedCapture raw = ChunkedCapture::encode(make_capture(31, 900));
  ChunkedCapture summary = ChunkedCapture::encode(make_capture(32, 500));
  summary.drop_raw();
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    ASSERT_TRUE(engine
                    .append({"vp-a", seq}, "DEV", TimePoint::from_micros(seq),
                            seq == 6 ? summary : raw)
                    .ok());
  }
  const auto installs = [&engine] {
    return engine.stats().manifest_installs;
  };
  const auto base = installs();

  ASSERT_TRUE(engine.drop_raw({{"vp-a", 1}, {"vp-a", 2}, {"vp-a", 3}}).ok());
  EXPECT_EQ(installs(), base + 1);
  ASSERT_TRUE(engine.drop_raw({{"vp-a", 4}}).ok());
  EXPECT_EQ(installs(), base + 2);
  ASSERT_TRUE(engine.erase({{"vp-a", 4}, {"vp-a", 5}}).ok());
  EXPECT_EQ(installs(), base + 3);
  EXPECT_EQ(files_with_prefix(dir, "seg-"),
            (std::vector<std::string>{"seg-r-1.blsg", "seg-r-2.blsg",
                                      "seg-r-3.blsg", "seg-s-6.blsg"}));
  EXPECT_EQ(engine.stats().segments_deleted, 2u);

  // Nothing to change: no install.
  ASSERT_TRUE(engine.drop_raw({}).ok());
  ASSERT_TRUE(engine.erase({}).ok());
  ASSERT_TRUE(engine.drop_raw({{"vp-a", 1}, {"vp-a", 6}, {"vp-z", 9}}).ok());
  ASSERT_TRUE(engine.erase({{"vp-a", 5}, {"vp-z", 9}}).ok());
  EXPECT_EQ(installs(), base + 3);
  EXPECT_EQ(files_with_prefix(dir, "manifest-"),
            (std::vector<std::string>{"manifest-8", "manifest-9"}));
  EXPECT_EQ(engine.stats().checkpoints, 0u);
  EXPECT_EQ(engine.stats().segment_flushes, 6u);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const auto info = engine.info({"vp-a", seq});
    ASSERT_TRUE(info.has_value());
    EXPECT_TRUE(info->raw_dropped) << seq;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, CommittedDropSurvivesRestartBeforeCheckpoint) {
  // A committed raw drop is in the manifest before any checkpoint demotes
  // its file. A restart in between recovers the capture as a summary: the
  // store reports its tier, range() fails, and load() returns the summary
  // image. The next checkpoint then writes its seg-s file and deletes the
  // raw one.
  const std::string dir = scratch_dir("dropsurvives");
  const Capture original = make_capture(33, 1200);
  ChunkedCapture summary = ChunkedCapture::encode(original);
  summary.drop_raw();
  CaptureId id;
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    CaptureStore store;
    store.attach_persistence(&engine);
    id = store.append("vp-x", "DEV", original, TimePoint::from_micros(500));
    (void)store.append("vp-y", "DEV", original, TimePoint::from_micros(600));
    ASSERT_EQ(store.drop_workspace_raw("vp-x"), 1u);
    EXPECT_EQ(engine.stats().checkpoints, 0u);
  }
  EXPECT_EQ(files_with_prefix(dir, "seg-"),
            (std::vector<std::string>{"seg-r-1.blsg", "seg-r-2.blsg"}));

  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  CaptureStore store;
  store.attach_persistence(&engine);
  EXPECT_EQ(engine.size(), 2u);
  auto source = store.source_of(id);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source.value(), CaptureSource::kTier);
  auto loaded = engine.load(id);
  ASSERT_TRUE(loaded.ok()) << loaded.error().str();
  EXPECT_EQ(loaded.value().serialize(), summary.serialize());
  const auto range = store.range(id, TimePoint::epoch(), TimePoint::max());
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.error().code, blab::util::ErrorCode::kFailedPrecondition);

  ASSERT_TRUE(engine.checkpoint().ok());
  EXPECT_EQ(engine.stats().checkpoints, 1u);
  EXPECT_EQ(engine.stats().demotions, 1u);
  EXPECT_EQ(files_with_prefix(dir, "seg-"),
            (std::vector<std::string>{"seg-r-2.blsg", "seg-s-3.blsg"}));
  EXPECT_TRUE(read_all(fs::path{dir} / "seg-s-3.blsg") ==
              persist::build_segment(
                  persist::kTierSummary,
                  {{id, "DEV", TimePoint::from_micros(500),
                    std::string{summary.serialize()}}}));
  // Demoted: a second checkpoint has nothing to do.
  ASSERT_TRUE(engine.checkpoint().ok());
  EXPECT_EQ(engine.stats().checkpoints, 1u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, RecoveryDropsSegmentsBreakingTheOneCaptureInvariant) {
  // A listed segment must hold exactly one capture, and a manifest that
  // says raw cannot list a summary segment. Recovery drops any that break
  // this, counts them, and keeps the rest.
  const std::string dir = scratch_dir("invariant");
  const fs::path root{dir};
  const std::string cc = capture_bytes(45, 120);
  const auto write = [&root](const std::string& file, const std::string& s) {
    std::ofstream out{root / file, std::ios::binary};
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
  };
  write("seg-r-1.blsg",
        persist::build_segment(
            persist::kTierRaw, {{{"vp-a", 1}, "DEV", TimePoint::epoch(), cc},
                                {{"vp-a", 2}, "DEV", TimePoint::epoch(), cc}}));
  write("seg-s-2.blsg",
        persist::build_segment(persist::kTierSummary,
                               {{{"vp-b", 3}, "DEV", TimePoint::epoch(),
                                 ChunkedCapture::summary_image(cc).value()}}));
  write("seg-r-3.blsg", persist::build_segment(persist::kTierRaw, {}));
  write("seg-r-4.blsg",
        persist::build_segment(persist::kTierRaw,
                               {{{"vp-c", 4}, "DEV", TimePoint::epoch(), cc}}));
  persist::Manifest manifest;
  manifest.version = 1;
  manifest.next_seq = 5;
  manifest.segments = {{"seg-r-1.blsg", persist::kTierRaw},
                       {"seg-s-2.blsg", persist::kTierRaw},
                       {"seg-r-3.blsg", persist::kTierRaw},
                       {"seg-r-4.blsg", persist::kTierRaw}};
  write("manifest-1", persist::encode_manifest(manifest));

  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_EQ(engine.stats().segments_dropped, 3u);
  EXPECT_EQ(engine.size(), 1u);
  EXPECT_TRUE(engine.contains({"vp-c", 4}));
  EXPECT_EQ(files_with_prefix(dir, "seg-"),
            std::vector<std::string>{"seg-r-4.blsg"});
  std::error_code ec;
  fs::remove_all(dir, ec);
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
    ASSERT_TRUE(engine.drop_raw({{"vp-1", 1}}).ok());
    ASSERT_TRUE(engine.checkpoint().ok());
    EXPECT_EQ(engine.stats().segment_flushes, 7u);
    EXPECT_EQ(engine.stats().checkpoints, 1u);
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_EQ(engine.size(), 6u);
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

  // Each checkpoint has a drop to demote; one with nothing to do is not run.
  ASSERT_TRUE(engine.append({"vp-a", 1}, "DEV", TimePoint::from_micros(1), cc)
                  .ok());
  ASSERT_TRUE(engine.drop_raw({{"vp-a", 1}}).ok());
  ASSERT_TRUE(engine.checkpoint(persist::CheckpointCause::kScheduled).ok());
  ASSERT_TRUE(engine.append({"vp-a", 2}, "DEV", TimePoint::from_micros(2), cc)
                  .ok());
  ASSERT_TRUE(engine.drop_raw({{"vp-a", 2}}).ok());
  ASSERT_TRUE(engine.checkpoint().ok());  // default: manual
  ASSERT_TRUE(engine.checkpoint().ok());  // nothing to demote

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
  EXPECT_EQ(snap.value_or("blab_persist_demotions_total"), 2.0);
  EXPECT_EQ(snap.value_or("blab_persist_manifest_installs_total"), 6.0);
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

TEST(PersistEngine, CorruptSegmentTrailerDropsOnlyThatSegment) {
  const std::string dir = scratch_dir("seggone");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(34, 100));
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    ASSERT_TRUE(engine
                    .append({"vp-a", 1}, "DEV", TimePoint::from_micros(100),
                            cc)
                    .ok());
    ASSERT_TRUE(engine
                    .append({"vp-b", 2}, "DEV", TimePoint::from_micros(200),
                            cc)
                    .ok());
  }
  // Smash the victim's segment trailer.
  {
    std::fstream f{fs::path{dir} / "seg-r-1.blsg",
                   std::ios::binary | std::ios::in | std::ios::out};
    f.seekp(-4, std::ios::end);
    f.write("XXXX", 4);
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());  // recovery proceeds, with a loss report
  EXPECT_EQ(engine.stats().segments_dropped, 1u);
  EXPECT_FALSE(engine.contains({"vp-a", 1}));
  EXPECT_EQ(engine.size(), 1u);  // the other capture is untouched
  EXPECT_FALSE(fs::exists(fs::path{dir} / "seg-r-1.blsg"));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, CorruptSegmentCaptureFailsLoadAndCheckpoint) {
  // A byte flipped inside a raw segment's capture, after the append wrote
  // it, is caught on both read-backs against the CRC its index entry
  // recorded: load() and the checkpoint that would demote it into a
  // summary segment. The failed checkpoint installs no manifest and writes
  // no segment. Appended and recovered entries both.
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
    const fs::path segment = fs::path{dir} / "seg-r-1.blsg";
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
    ASSERT_TRUE(engine->drop_raw({id}).ok());
    const auto manifests = files_with_prefix(dir, "manifest-");
    const auto st = engine->checkpoint();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, blab::util::ErrorCode::kUnavailable);
    EXPECT_EQ(files_with_prefix(dir, "manifest-"), manifests);
    EXPECT_EQ(files_with_prefix(dir, "seg-"),
              std::vector<std::string>{"seg-r-1.blsg"});
    engine.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
}

TEST(PersistEngine, RetentionDemotesThenErasesAndReclaimsBytes) {
  // Each retention pass erases the summary-expired captures and demotes the
  // raw-expired ones. Afterwards every segment holds one capture, byte for
  // byte build_segment of it at its tier, and every erased capture's file
  // is gone.
  const std::string dir = scratch_dir("ttl");
  RetentionPolicy policy;
  policy.raw_ttl = Duration::minutes(30);
  policy.summary_ttl = Duration::minutes(240);
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  std::map<CaptureId, persist::SegmentRecord> records;
  const std::pair<const char*, int> stamps[] = {
      {"vp-old", 0}, {"vp-mid", 100}, {"vp-new", 200}};
  for (std::uint64_t i = 0; i < std::size(stamps); ++i) {
    const CaptureId id{stamps[i].first, i + 1};
    const TimePoint at =
        TimePoint::epoch() + Duration::minutes(stamps[i].second);
    const ChunkedCapture cc = ChunkedCapture::encode(make_capture(50 + i, 2000));
    ASSERT_TRUE(engine.append(id, "DEV", at, cc).ok());
    records[id] = {id, "DEV", at, std::string{cc.serialize()}};
  }
  const std::uint64_t before = engine.disk_usage_bytes();

  // vp-old and vp-mid are past their raw TTL; vp-new is 10 minutes old.
  const TimePoint t1 = TimePoint::epoch() + Duration::minutes(210);
  const std::uint64_t reclaimed1 = engine.run_retention(t1, policy);
  EXPECT_GT(reclaimed1, 0u);
  EXPECT_LT(engine.disk_usage_bytes(), before);
  auto demoted = engine.load({"vp-old", 1});
  ASSERT_TRUE(demoted.ok());
  EXPECT_FALSE(demoted.value().raw_available());
  auto fresh = engine.load({"vp-new", 3});
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.value().raw_available());
  auto files = expect_canonical_segments(dir, records);
  ASSERT_EQ(files.size(), 3u);
  std::string old_file;
  for (const auto& [file, id] : files) {
    EXPECT_EQ(file.starts_with("seg-s-"), id.workspace != "vp-new") << file;
    if (id.workspace == "vp-old") old_file = file;
  }
  EXPECT_EQ(engine.stats().demotions, 2u);
  EXPECT_EQ(engine.stats().segments_deleted, 2u);

  // Past the summary TTL: vp-old disappears with its file, and vp-new is
  // demoted in turn.
  const TimePoint t2 = TimePoint::epoch() + Duration::minutes(241);
  (void)engine.run_retention(t2, policy);
  EXPECT_FALSE(engine.contains({"vp-old", 1}));
  EXPECT_TRUE(engine.contains({"vp-new", 3}));
  EXPECT_FALSE(fs::exists(fs::path{dir} / old_file));
  files = expect_canonical_segments(dir, records);
  ASSERT_EQ(files.size(), 2u);
  for (const auto& [file, id] : files) EXPECT_TRUE(file.starts_with("seg-s-"));
  EXPECT_EQ(engine.stats().segments_deleted, 4u);
  EXPECT_GE(engine.stats().retention_bytes_reclaimed, reclaimed1);
  expect_flat_store(dir);
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
  // The purge was committed: a restart still has no raw tier.
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
