// Durable capture store: CRC32C, the manifest format, the PersistEngine
// write and recovery paths (a segment file is its capture's image, every
// change is committed by one manifest, demotion, retention, garbage
// collection), and the CaptureStore integration (archive-through appends,
// a reopened store's cold catalog, transparent cold queries, and purges
// and retention passes that change memory only once their commit holds).
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
// Manifest format.
// ------------------------------------------------------------------------

persist::Manifest make_manifest_fixture() {
  persist::Manifest manifest;
  manifest.version = 12;
  manifest.next_seq = 99;
  manifest.entries = {
      {{"vp-oslo", 1}, "DEV-1", TimePoint::from_micros(100), "seg-r-1.blsg",
       persist::kTierRaw, 2908791, 0x1234ABCDu},
      {{"vp-oslo", 4}, "DEV-2", TimePoint::from_micros(200), "seg-r-2.blsg",
       persist::kTierSummary, 31, 0xFFFFFFFFu},
      {{"vp-rio", 2}, "", TimePoint::from_micros(-5), "seg-s-3.blsg",
       persist::kTierSummary, 0, 0}};
  return manifest;
}

TEST(ManifestFormat, RoundTripsAndDetectsCorruption) {
  const persist::Manifest manifest = make_manifest_fixture();
  const std::string image = persist::encode_manifest(manifest);
  const auto parsed = persist::parse_manifest(image);
  ASSERT_TRUE(parsed.ok()) << parsed.error().str();
  // The fixture sets every entry field, so equality covers each of them.
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

TEST(ManifestFormat, RejectsUnsortedOrRepeatedIds) {
  // Entries are strictly ascending by id: one canonical order, in which a
  // repeated id cannot be written. Either defect under a valid CRC fails
  // the parse.
  persist::Manifest swapped = make_manifest_fixture();
  std::swap(swapped.entries[0], swapped.entries[1]);
  persist::Manifest repeated = make_manifest_fixture();
  repeated.entries[1].id = repeated.entries[0].id;
  persist::Manifest seq_down = make_manifest_fixture();
  seq_down.entries[1].id.seq = 0;
  for (const persist::Manifest* m : {&swapped, &repeated, &seq_down}) {
    const auto parsed = persist::parse_manifest(persist::encode_manifest(*m));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, blab::util::ErrorCode::kInvalidArgument);
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

/// The catalog the store in `dir` last committed: its highest manifest.
persist::Manifest newest_manifest(const fs::path& dir) {
  const auto names = files_with_prefix(dir, "manifest-");
  std::string newest;
  for (const std::string& name : names) {
    if (newest.empty() || std::stoull(name.substr(9)) >
                              std::stoull(newest.substr(9))) {
      newest = name;
    }
  }
  auto parsed = persist::parse_manifest(read_all(dir / newest));
  EXPECT_TRUE(parsed.ok()) << newest;
  return parsed.ok() ? parsed.value() : persist::Manifest{};
}

/// Requires every segment file in `dir` to be listed by the newest
/// manifest and to be, byte for byte, its capture's image at its tier: the
/// raw image in a seg-r file, its summary image in a seg-s file. Returns
/// each file's id.
std::map<std::string, CaptureId> expect_canonical_segments(
    const fs::path& dir, const std::map<CaptureId, std::string>& images) {
  std::map<std::string, CaptureId> found;
  for (const persist::ManifestEntry& entry : newest_manifest(dir).entries) {
    const auto it = images.find(entry.id);
    if (it == images.end()) {
      ADD_FAILURE() << entry.file << " holds unexpected " << entry.id.str();
      continue;
    }
    const std::string image =
        entry.file.starts_with("seg-r-")
            ? it->second
            : ChunkedCapture::summary_image(it->second).value();
    const std::string bytes = read_all(dir / entry.file);
    EXPECT_TRUE(bytes == image) << entry.file;
    EXPECT_EQ(entry.length, bytes.size()) << entry.file;
    EXPECT_EQ(entry.crc, persist::crc32c(bytes)) << entry.file;
    found.emplace(entry.file, entry.id);
  }
  std::vector<std::string> listed;
  for (const auto& [file, id] : found) listed.push_back(file);
  EXPECT_EQ(files_with_prefix(dir, "seg-"), listed);
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
  // the capture's image, so segment_bytes is the images and nothing else.
  // The manifest lists each capture's record: id, name, stamp, file, tier,
  // and the image's length and CRC.
  const std::string dir = scratch_dir("onewrite");
  ChunkedCapture summary = ChunkedCapture::encode(make_capture(37, 3000));
  summary.drop_raw();
  const ChunkedCapture captures[] = {
      ChunkedCapture::encode(make_capture(36, 9000)), summary,
      ChunkedCapture::encode(make_capture(38, 100), 7)};
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  // Segment numbers follow append order.
  const char* files[] = {"seg-r-1.blsg", "seg-s-2.blsg", "seg-r-3.blsg"};
  std::vector<std::string> expected;
  std::vector<persist::ManifestEntry> listed;
  std::uint64_t expected_bytes = 0;
  for (std::uint64_t i = 0; i < std::size(captures); ++i) {
    const CaptureId id{"vp-" + std::to_string(i), i + 1};
    const TimePoint at = TimePoint::from_micros(1000 * (i + 1));
    ASSERT_TRUE(engine.append(id, "DEV", at, captures[i]).ok());
    expected.emplace_back(captures[i].serialize());
    expected_bytes += expected.back().size();
    listed.push_back({id, "DEV", at, files[i],
                      captures[i].raw_available() ? persist::kTierRaw
                                                  : persist::kTierSummary,
                      expected.back().size(), persist::crc32c(expected.back())});
  }
  EXPECT_EQ(engine.stats().manifest_installs, std::size(captures));
  EXPECT_EQ(engine.stats().checkpoints, 0u);
  EXPECT_EQ(engine.stats().segment_flushes, std::size(captures));
  EXPECT_EQ(engine.stats().segment_bytes, expected_bytes);
  const fs::path root{dir};
  for (std::size_t i = 0; i < std::size(captures); ++i) {
    EXPECT_TRUE(read_all(root / files[i]) == expected[i]) << files[i];
  }
  EXPECT_EQ(files_with_prefix(dir, "seg-").size(), std::size(captures));
  EXPECT_TRUE(newest_manifest(root).entries == listed);
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
    engine.scan_catalog([&out](const persist::PersistEngine::EntryInfo& e) {
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
  // The checkpoint's summary segment was written, then removed.
  EXPECT_EQ(files_with_prefix(dir, ""), files);
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
  // was installed leaves a capture's image in a segment no manifest lists.
  // It was never acknowledged: open() deletes it.
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
    out << cc.serialize();
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_FALSE(fs::exists(orphan));
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
    store.attach_persistence(engine);
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
  store.attach_persistence(engine);
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
              summary.serialize());
  // Demoted: a second checkpoint has nothing to do.
  ASSERT_TRUE(engine.checkpoint().ok());
  EXPECT_EQ(engine.stats().checkpoints, 1u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, RecoveryDropsSegmentsBreakingTheOneCaptureInvariant) {
  // Each listed entry owns one segment file holding exactly its image.
  // Recovery drops, counts and reports an entry whose file is missing, of
  // another size than listed, not a segment file name, a summary segment
  // listed raw, or already named by an earlier entry; it keeps the rest,
  // including a summary listed over a raw file (a pending demotion).
  const std::string dir = scratch_dir("invariant");
  const fs::path root{dir};
  const std::string cc = capture_bytes(45, 120);
  const std::string summary = ChunkedCapture::summary_image(cc).value();
  const auto write = [&root](const std::string& file, const std::string& s) {
    std::ofstream out{root / file, std::ios::binary};
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
  };
  const auto entry = [](CaptureId id, const std::string& file,
                        std::uint8_t tier, const std::string& image) {
    return persist::ManifestEntry{std::move(id), "DEV", TimePoint::epoch(),
                                  file, tier, image.size(),
                                  persist::crc32c(image)};
  };
  write("seg-r-1.blsg", cc);
  write("seg-r-3.blsg", cc + "x");
  write("notes.blsg", cc);
  write("seg-s-5.blsg", summary);
  write("seg-r-7.blsg", cc);
  persist::Manifest manifest;
  manifest.version = 1;
  manifest.next_seq = 8;
  manifest.entries = {
      entry({"vp-a", 1}, "seg-r-1.blsg", persist::kTierRaw, cc),
      entry({"vp-a", 2}, "seg-r-2.blsg", persist::kTierRaw, cc),  // missing
      entry({"vp-a", 3}, "seg-r-3.blsg", persist::kTierRaw, cc),  // longer
      entry({"vp-b", 4}, "notes.blsg", persist::kTierRaw, cc),
      entry({"vp-b", 5}, "seg-s-5.blsg", persist::kTierRaw, summary),
      entry({"vp-c", 6}, "seg-r-1.blsg", persist::kTierRaw, cc),  // repeated
      entry({"vp-c", 7}, "seg-r-7.blsg", persist::kTierSummary, cc)};
  write("manifest-1", persist::encode_manifest(manifest));

  blab::obs::MetricsRegistry registry;
  persist::PersistEngine engine{dir};
  engine.attach_metrics(&registry);
  ASSERT_TRUE(engine.open().ok());
  EXPECT_EQ(engine.stats().segments_dropped, 5u);
  EXPECT_EQ(registry.snapshot().value_or("blab_persist_segments_dropped_total"),
            5.0);
  EXPECT_EQ(engine.size(), 2u);
  EXPECT_TRUE(engine.contains({"vp-a", 1}));
  ASSERT_TRUE(engine.info({"vp-c", 7}).has_value());
  EXPECT_TRUE(engine.info({"vp-c", 7})->raw_dropped);
  EXPECT_EQ(files_with_prefix(dir, "seg-"),
            (std::vector<std::string>{"seg-r-1.blsg", "seg-r-7.blsg"}));
  EXPECT_TRUE(fs::exists(root / "notes.blsg"));  // not the store's file
  // A registry attached after open() catches up.
  blab::obs::MetricsRegistry late;
  engine.attach_metrics(&late);
  EXPECT_EQ(late.snapshot().value_or("blab_persist_segments_dropped_total"),
            5.0);
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

TEST(PersistEngine, CorruptSegmentTrailerDropsOnlyThatSegment) {
  // A segment that lost its trailing bytes no longer has its listed
  // length: recovery drops that entry alone and collects its file.
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
  const fs::path victim = fs::path{dir} / "seg-r-1.blsg";
  fs::resize_file(victim, fs::file_size(victim) - 4);
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());  // recovery proceeds, with a loss report
  EXPECT_EQ(engine.stats().segments_dropped, 1u);
  EXPECT_FALSE(engine.contains({"vp-a", 1}));
  EXPECT_EQ(engine.size(), 1u);  // the other capture is untouched
  EXPECT_TRUE(engine.load({"vp-b", 2}).ok());
  EXPECT_FALSE(fs::exists(victim));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, RecoveryReadsNoSegmentByte) {
  // A listed segment overwritten with zeros of its own length still
  // passes recovery's one stat, so open() indexes it: recovery reads no
  // segment byte. Its load then fails the manifest's CRC.
  const std::string dir = scratch_dir("zeros");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(46, 300));
  const CaptureId id{"vp-a", 1};
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    ASSERT_TRUE(engine.append(id, "DEV", TimePoint::from_micros(100), cc)
                    .ok());
  }
  {
    std::ofstream out{fs::path{dir} / "seg-r-1.blsg",
                      std::ios::binary | std::ios::trunc};
    out << std::string(cc.serialize().size(), '\0');
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  EXPECT_EQ(engine.stats().segments_dropped, 0u);
  EXPECT_TRUE(engine.contains(id));
  const auto loaded = engine.load(id);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, blab::util::ErrorCode::kUnavailable);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistEngine, OpenRefusesAStoreOfAnotherFormatVersion) {
  // A manifest whose magic names another BLMF version belongs to another
  // build: open() fails naming it and touches no file, rather than
  // starting an empty store and collecting every segment.
  const std::string dir = scratch_dir("foreign");
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(47, 200));
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(engine
                      .append({"vp-a", seq}, "DEV",
                              TimePoint::from_micros(seq), cc)
                      .ok());
    }
  }
  const fs::path root{dir};
  for (const std::string& name : files_with_prefix(dir, "manifest-")) {
    std::fstream f{root / name,
                   std::ios::binary | std::ios::in | std::ios::out};
    f.write("BLMF2", 5);
  }
  std::map<std::string, std::string> before;
  for (const std::string& name : files_with_prefix(dir, "")) {
    before[name] = read_all(root / name);
  }
  ASSERT_EQ(before.size(), 5u);  // three segments, two manifests

  persist::PersistEngine engine{dir};
  const auto st = engine.open();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, blab::util::ErrorCode::kFailedPrecondition);
  EXPECT_NE(st.error().message.find("BLMF2"), std::string::npos)
      << st.error().str();
  EXPECT_FALSE(engine.opened());
  std::map<std::string, std::string> after;
  for (const std::string& name : files_with_prefix(dir, "")) {
    after[name] = read_all(root / name);
  }
  EXPECT_TRUE(after == before);
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
      const auto flip_at = static_cast<std::streamoff>(capture_size / 2);
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

TEST(PersistEngine, CorruptCaptureDoesNotStopTheOtherDemotions) {
  // Three dropped captures, one of them (first, middle or last) or the first
  // and last with a byte flipped in the raw segment. The checkpoint demotes
  // the healthy ones with one manifest and deletes their raw files, then
  // fails naming the first corrupt one; a corrupt capture stays summary
  // over its raw file and keeps failing load(). Every segment file left is
  // listed: a second checkpoint writes nothing, and a restart collects
  // nothing and sees the same state.
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(36, 400));
  const std::size_t capture_size = cc.serialize().size();
  const std::vector<CaptureId> ids = {{"vp-a", 1}, {"vp-a", 2}, {"vp-a", 3}};
  const auto raw_file = [](const CaptureId& id) {
    return "seg-r-" + std::to_string(id.seq) + ".blsg";
  };
  const std::vector<std::vector<CaptureId>> cases = {
      {ids[0]}, {ids[1]}, {ids[2]}, {ids[0], ids[2]}};
  for (const std::vector<CaptureId>& corrupt : cases) {
    SCOPED_TRACE("first corrupt " + corrupt.front().str() + " of " +
                 std::to_string(corrupt.size()));
    const std::string dir = scratch_dir("segcrc3");
    auto engine = std::make_unique<persist::PersistEngine>(dir);
    ASSERT_TRUE(engine->open().ok());
    for (const CaptureId& id : ids) {
      ASSERT_TRUE(
          engine->append(id, "DEV", TimePoint::from_micros(id.seq), cc).ok());
    }
    std::vector<std::string> segments;
    for (const CaptureId& id : corrupt) {
      const auto flip_at = static_cast<std::streamoff>(capture_size / 2);
      std::fstream f{fs::path{dir} / raw_file(id),
                     std::ios::binary | std::ios::in | std::ios::out};
      f.seekg(flip_at);
      const int byte = f.get();
      f.seekp(flip_at);
      f.put(static_cast<char>(byte ^ 0x40));
      segments.push_back(raw_file(id));
    }
    const std::size_t healthy = ids.size() - corrupt.size();
    for (std::size_t n = 0; n < healthy; ++n) {
      segments.push_back("seg-s-" + std::to_string(4 + n) + ".blsg");
    }
    ASSERT_TRUE(engine->drop_raw(ids).ok());
    const auto installs = engine->stats().manifest_installs;

    const auto st = engine->checkpoint();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, blab::util::ErrorCode::kUnavailable);
    EXPECT_NE(st.error().str().find("reading " + corrupt.front().str() + " "),
              std::string::npos)
        << st.error().str();
    EXPECT_EQ(engine->stats().manifest_installs, installs + 1);
    EXPECT_EQ(engine->stats().demotions, healthy);
    EXPECT_EQ(engine->stats().checkpoints, 1u);
    EXPECT_EQ(files_with_prefix(dir, "seg-"), segments);

    const auto expect_state = [&](persist::PersistEngine& e) {
      EXPECT_EQ(e.size(), 3u);
      for (const CaptureId& id : ids) {
        ASSERT_TRUE(e.info(id).has_value());
        EXPECT_TRUE(e.info(id)->raw_dropped);
        const auto loaded = e.load(id);
        if (std::find(corrupt.begin(), corrupt.end(), id) != corrupt.end()) {
          ASSERT_FALSE(loaded.ok());
          EXPECT_EQ(loaded.error().code, blab::util::ErrorCode::kUnavailable);
        } else {
          ASSERT_TRUE(loaded.ok()) << id.str();
          EXPECT_FALSE(loaded.value().raw_available());
        }
      }
    };
    expect_state(*engine);
    EXPECT_FALSE(engine->checkpoint().ok());
    EXPECT_EQ(engine->stats().manifest_installs, installs + 1);
    EXPECT_EQ(files_with_prefix(dir, "seg-"), segments);

    engine = std::make_unique<persist::PersistEngine>(dir);
    ASSERT_TRUE(engine->open().ok());
    EXPECT_EQ(engine->stats().segments_dropped, 0u);
    EXPECT_EQ(files_with_prefix(dir, "seg-"), segments);
    expect_state(*engine);
    EXPECT_FALSE(engine->checkpoint().ok());
    EXPECT_EQ(files_with_prefix(dir, "seg-"), segments);
    engine.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
}

TEST(PersistEngine, RetentionDemotesThenErasesAndReclaimsBytes) {
  // Each retention pass erases the summary-expired captures and demotes the
  // raw-expired ones. Afterwards every segment is listed and is, byte for
  // byte, its capture's image at its tier, and every erased capture's file
  // is gone.
  const std::string dir = scratch_dir("ttl");
  RetentionPolicy policy;
  policy.raw_ttl = Duration::minutes(30);
  policy.summary_ttl = Duration::minutes(240);
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  std::map<CaptureId, std::string> images;
  const std::pair<const char*, int> stamps[] = {
      {"vp-old", 0}, {"vp-mid", 100}, {"vp-new", 200}};
  for (std::uint64_t i = 0; i < std::size(stamps); ++i) {
    const CaptureId id{stamps[i].first, i + 1};
    const TimePoint at =
        TimePoint::epoch() + Duration::minutes(stamps[i].second);
    const ChunkedCapture cc = ChunkedCapture::encode(make_capture(50 + i, 2000));
    ASSERT_TRUE(engine.append(id, "DEV", at, cc).ok());
    images[id] = cc.serialize();
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
  auto files = expect_canonical_segments(dir, images);
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
  files = expect_canonical_segments(dir, images);
  ASSERT_EQ(files.size(), 2u);
  for (const auto& [file, id] : files) EXPECT_TRUE(file.starts_with("seg-s-"));
  EXPECT_EQ(engine.stats().segments_deleted, 4u);
  EXPECT_GE(engine.stats().retention_bytes_reclaimed, reclaimed1);
  expect_flat_store(dir);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ------------------------------------------------------------------------
// CaptureStore integration: archive-through, cold queries, source_of,
// failed commits.
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
    store.attach_persistence(engine);
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
  store.attach_persistence(engine);
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

TEST(PersistentStore, RangeIsTheDecodeSliceForInterleavedReaders) {
  // Two recovered captures of 100 samples at 1 kHz in 16-sample chunks (six
  // full chunks and a 4-sample tail), read in interleaved order, every
  // window twice: each answer is the matching slice of decode(), and each
  // read decodes exactly the chunks its window touches.
  const std::string dir = scratch_dir("range");
  constexpr std::size_t kChunkSamples = 16;
  constexpr double kHz = 1000.0;
  std::vector<CaptureId> ids;
  std::vector<std::vector<float>> decoded;
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    for (std::uint64_t seq : {1u, 2u}) {
      const Capture capture{TimePoint::epoch(), kHz, 3.85,
                            walk_samples(50 + seq, 100)};
      const ChunkedCapture cc = ChunkedCapture::encode(capture, kChunkSamples);
      ids.push_back(CaptureId{"vp-r", seq});
      ASSERT_TRUE(
          engine.append(ids.back(), "DEV", TimePoint::epoch(), cc).ok());
      auto samples = cc.decode();
      ASSERT_TRUE(samples.ok());
      decoded.push_back(samples.value().samples_ma());
    }
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  CaptureStore store;
  store.attach_persistence(engine);

  // Sample i is at i ms; half a sample before it maps to it exactly.
  const auto at = [](std::int64_t i) {
    return TimePoint::epoch() + Duration::micros(1000 * i - 500);
  };
  struct Window {
    std::int64_t t0, t1;         // in samples, before clamping
    std::size_t first, last;     // the answer's slice of decode()
    std::uint64_t chunks;        // chunks the window touches
  };
  const Window windows[] = {
      {5, 50, 5, 50, 4},          // mid-chunk to mid-chunk, chunks 0-3
      {18, 25, 18, 25, 1},        // inside chunk 1
      {90, 98, 90, 98, 2},        // ends inside the tail chunk
      {40, 40, 40, 40, 0},        // empty
      {-3000, 5000, 0, 100, 7},   // clamped at both ends: every chunk
  };
  for (int round = 0; round < 2; ++round) {
    for (const Window& w : windows) {
      for (std::size_t c = 0; c < ids.size(); ++c) {
        SCOPED_TRACE(::testing::Message() << "round " << round << ", capture "
                                          << c << ", [" << w.t0 << ", "
                                          << w.t1 << ")");
        const std::uint64_t before = store.stats().raw_chunk_decodes;
        auto got = store.range(ids[c], at(w.t0), at(w.t1));
        ASSERT_TRUE(got.ok()) << got.error().str();
        EXPECT_EQ(got.value().samples_ma(),
                  std::vector<float>(decoded[c].begin() + w.first,
                                     decoded[c].begin() + w.last));
        EXPECT_EQ(got.value().start(),
                  TimePoint::epoch() +
                      Duration::seconds(static_cast<double>(w.first) / kHz));
        EXPECT_EQ(store.stats().raw_chunk_decodes - before, w.chunks);
      }
    }
  }
  EXPECT_EQ(store.stats().disk_loads, 2u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistentStore, SourceOfReportsTierAfterRawDrop) {
  const std::string dir = scratch_dir("tier");
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  CaptureStore store;
  store.attach_persistence(engine);
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

TEST(PersistentStore, FailedAppendStaysQueryableUntilRestart) {
  // An archive-through append whose manifest install fails keeps its
  // in-memory record, listed and queryable, for this process's lifetime
  // only: a restart does not know it.
  const std::string dir = scratch_dir("failarchive");
  const fs::path root{dir};
  const Capture original = make_capture(49, 600);
  CaptureId kept;
  CaptureId lost;
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    CaptureStore store;
    store.attach_persistence(engine);
    kept = store.append("vp-a", "DEV", original, TimePoint::epoch());
    fs::create_directory(root / "manifest-2.tmp");
    lost = store.append("vp-a", "DEV", original, TimePoint::epoch());
    EXPECT_FALSE(engine.contains(lost));
    EXPECT_EQ(store.list("vp-a"), (std::vector<CaptureId>{kept, lost}));
    EXPECT_EQ(store.source_of(lost).value(), CaptureSource::kMemory);
    const auto range = store.range(lost, TimePoint::epoch(), TimePoint::max());
    ASSERT_TRUE(range.ok()) << range.error().str();
    EXPECT_EQ(range.value().samples_ma(), original.samples_ma());
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  CaptureStore store;
  store.attach_persistence(engine);
  EXPECT_EQ(store.list("vp-a"), std::vector<CaptureId>{kept});
  EXPECT_FALSE(store.contains(lost));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistentStore, FailedWorkspacePurgeChangesNothing) {
  // A workspace purge whose manifest install fails (a directory squatting
  // on manifest-<v+1>.tmp) purges nothing, in memory or on disk: it returns
  // 0, the raw samples still answer, and a restart answers the same. The
  // reopened store's purge then commits, without loading the capture.
  const std::string dir = scratch_dir("failpurge");
  const fs::path root{dir};
  const Capture original = make_capture(48, 1200);
  CaptureId id;
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    CaptureStore store;
    store.attach_persistence(engine);
    id = store.append("vp-x", "DEV", original, TimePoint::epoch());
    fs::create_directory(root / "manifest-2.tmp");
    EXPECT_EQ(store.drop_workspace_raw("vp-x"), 0u);
    EXPECT_EQ(store.stats().raw_purges, 0u);
    EXPECT_EQ(store.source_of(id).value(), CaptureSource::kMemory);
    const auto range = store.range(id, TimePoint::epoch(), TimePoint::max());
    ASSERT_TRUE(range.ok()) << range.error().str();
    EXPECT_EQ(range.value().samples_ma(), original.samples_ma());
    EXPECT_FALSE(engine.info(id)->raw_dropped);
  }
  // open() collects the squatter along with any other .tmp leftover.
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  CaptureStore store;
  store.attach_persistence(engine);
  EXPECT_EQ(store.source_of(id).value(), CaptureSource::kDisk);
  const auto range = store.range(id, TimePoint::epoch(), TimePoint::max());
  ASSERT_TRUE(range.ok()) << range.error().str();
  EXPECT_EQ(range.value().samples_ma(), original.samples_ma());

  CaptureStore cold;
  cold.attach_persistence(engine);
  EXPECT_EQ(cold.drop_workspace_raw("vp-x"), 1u);
  EXPECT_EQ(cold.source_of(id).value(), CaptureSource::kTier);
  EXPECT_EQ(cold.stats().disk_loads, 0u);
  EXPECT_TRUE(engine.info(id)->raw_dropped);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// Appends, through `store`, one capture past the summary TTL, one past the
/// raw TTL and one inside both, as of `kRetentionAt`.
constexpr Duration kRetentionAt = Duration::minutes(241);
std::vector<CaptureId> append_retention_fixture(CaptureStore& store) {
  std::vector<CaptureId> ids;
  for (const auto& [workspace, minutes] :
       {std::pair{"vp-old", 0}, {"vp-mid", 200}, {"vp-new", 230}}) {
    ids.push_back(store.append(
        workspace, "DEV", make_capture(51, 900),
        TimePoint::epoch() + Duration::minutes(minutes)));
  }
  return ids;
}

TEST(PersistentStore, FailedRetentionPassChangesNothingAndTheNextRetries) {
  // A retention pass whose manifest install fails returns 0 and moves
  // neither the catalog, nor a source, nor the newest manifest. Once the
  // squatter is gone the next pass erases one capture and drops the other's
  // raw tier, in memory and on disk: one manifest for the pass, one for the
  // checkpoint that demotes the drop.
  const std::string dir = scratch_dir("failretention");
  const fs::path root{dir};
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  CaptureStore store;
  store.attach_persistence(engine);
  const std::vector<CaptureId> ids = append_retention_fixture(store);
  const CaptureId old = ids[0], mid = ids[1], fresh = ids[2];
  const TimePoint now = TimePoint::epoch() + kRetentionAt;

  const persist::Manifest manifest = newest_manifest(root);
  const auto installs = engine.stats().manifest_installs;
  fs::create_directory(root / "manifest-4.tmp");
  EXPECT_EQ(store.run_retention(now), 0u);
  EXPECT_EQ(store.list("vp-old"), std::vector<CaptureId>{old});
  EXPECT_EQ(store.source_of(old).value(), CaptureSource::kMemory);
  EXPECT_EQ(store.source_of(mid).value(), CaptureSource::kMemory);
  EXPECT_EQ(store.stats().record_purges + store.stats().raw_purges, 0u);
  EXPECT_EQ(engine.stats().manifest_installs, installs);
  fs::remove(root / "manifest-4.tmp");
  EXPECT_TRUE(newest_manifest(root) == manifest);

  EXPECT_EQ(store.run_retention(now), 2u);
  EXPECT_EQ(engine.stats().manifest_installs, installs + 2);
  EXPECT_FALSE(store.contains(old));
  EXPECT_EQ(store.source_of(mid).value(), CaptureSource::kTier);
  EXPECT_EQ(store.source_of(fresh).value(), CaptureSource::kMemory);
  EXPECT_EQ(files_with_prefix(dir, "seg-"),
            (std::vector<std::string>{"seg-r-3.blsg", "seg-s-4.blsg"}));
  EXPECT_EQ(store.run_retention(now), 0u);  // nothing left to do

  persist::PersistEngine reopened{dir};
  ASSERT_TRUE(reopened.open().ok());
  CaptureStore restarted;
  restarted.attach_persistence(reopened);
  EXPECT_EQ(restarted.catalog(TimePoint::epoch(), TimePoint::max()),
            (std::vector<CaptureId>{mid, fresh}));
  EXPECT_EQ(restarted.source_of(mid).value(), CaptureSource::kTier);
  EXPECT_EQ(restarted.source_of(fresh).value(), CaptureSource::kDisk);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistentStore, ReopenedStoreCatalogsColdRecordsWithoutLoading) {
  // A reopened store lists, catalogs and counts every recovered capture
  // before any query, and answers source_of from the manifest's tier,
  // without reading a segment.
  const std::string dir = scratch_dir("reopen");
  const Capture original = make_capture(52, 600);
  std::vector<CaptureId> ids;
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    CaptureStore store;
    store.attach_persistence(engine);
    for (const auto& [workspace, minutes] :
         {std::pair{"vp-a", 1}, {"vp-b", 2}, {"vp-a", 3}}) {
      ids.push_back(store.append(workspace,
                                 "DEV-" + std::to_string(minutes), original,
                                 TimePoint::epoch() +
                                     Duration::minutes(minutes)));
    }
    ASSERT_EQ(store.drop_workspace_raw("vp-b"), 1u);
  }
  const CaptureId a1 = ids[0], b2 = ids[1], a3 = ids[2];
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  blab::obs::MetricsRegistry registry;
  CaptureStore store;
  store.attach_metrics(&registry);
  store.attach_persistence(engine);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(registry.snapshot().value_or("blab_store_records"), 3.0);
  EXPECT_EQ(store.workspaces(), (std::vector<std::string>{"vp-a", "vp-b"}));
  EXPECT_EQ(store.list("vp-a"), (std::vector<CaptureId>{a1, a3}));
  EXPECT_EQ(store.list("vp-b"), std::vector<CaptureId>{b2});
  EXPECT_EQ(store.catalog(TimePoint::epoch(), TimePoint::max()),
            (std::vector<CaptureId>{a1, a3, b2}));
  EXPECT_EQ(store.catalog(TimePoint::epoch() + Duration::minutes(2),
                          TimePoint::max()),
            (std::vector<CaptureId>{a3, b2}));
  EXPECT_EQ(store.name_of(a3).value_or(""), "DEV-3");
  EXPECT_EQ(store.source_of(a1).value(), CaptureSource::kDisk);
  EXPECT_EQ(store.source_of(b2).value(), CaptureSource::kTier);
  EXPECT_EQ(store.find(a1), nullptr);
  EXPECT_EQ(store.stats().disk_loads, 0u);
  EXPECT_EQ(engine.stats().disk_loads, 0u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PersistentStore, RetentionOverColdRecordsInstallsOneManifest) {
  // One retention pass over a reopened store, none of whose records was
  // ever loaded, erases one and drops another's raw tier with one manifest
  // install, plus one for its checkpoint's demotion, and loads nothing.
  const std::string dir = scratch_dir("coldretention");
  std::vector<CaptureId> ids;
  {
    persist::PersistEngine engine{dir};
    ASSERT_TRUE(engine.open().ok());
    CaptureStore store;
    store.attach_persistence(engine);
    ids = append_retention_fixture(store);
  }
  persist::PersistEngine engine{dir};
  ASSERT_TRUE(engine.open().ok());
  CaptureStore store;
  store.attach_persistence(engine);
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + kRetentionAt), 2u);
  EXPECT_EQ(engine.stats().manifest_installs, 2u);
  EXPECT_EQ(engine.stats().checkpoints_by_cause[static_cast<std::size_t>(
                persist::CheckpointCause::kRetention)],
            1u);
  EXPECT_EQ(store.stats().record_purges, 1u);
  EXPECT_EQ(store.stats().raw_purges, 1u);
  EXPECT_EQ(store.stats().disk_loads, 0u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(engine.contains(ids[0]));
  EXPECT_TRUE(engine.info(ids[1])->raw_dropped);
  EXPECT_EQ(store.source_of(ids[1]).value(), CaptureSource::kTier);
  EXPECT_EQ(store.source_of(ids[2]).value(), CaptureSource::kDisk);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
