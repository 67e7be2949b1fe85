#include "store/persist/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "obs/metrics.hpp"
#include "store/persist/crc32c.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace blab::store::persist {
namespace fs = std::filesystem;

namespace {

util::Error io_error(const std::string& what) {
  return util::make_error(util::ErrorCode::kUnavailable, what);
}

/// A capture's bytes no longer match the CRC its index entry recorded.
util::Error checksum_mismatch(const CaptureId& id, const std::string& segment) {
  return io_error("checksum mismatch reading " + id.str() + " from " +
                  segment);
}

util::Result<std::string> read_file_slice(const std::string& path,
                                          std::uint64_t offset,
                                          std::uint64_t length) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return io_error("cannot open " + path);
  std::string out;
  out.resize(length);
  bool bad = std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0;
  if (!bad && length > 0) {
    bad = std::fread(out.data(), 1, length, f) != length;
  }
  std::fclose(f);
  if (bad) return io_error("short read at " + path);
  return out;
}

/// The whole file, read into a buffer sized once from the file's size.
util::Result<std::string> read_file(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) return io_error("cannot open " + path);
  return read_file_slice(path, 0, size);
}

/// Temp-write + rename, so a crash never leaves a half-written file under
/// the final name (the manifest swap protocol relies on this). The file is
/// `parts` back to back, each written where it already is. A failed write
/// removes its temp file; one a crash leaves behind is collected by open().
util::Status write_file_atomic(const std::string& path,
                               const std::vector<std::string_view>& parts) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return io_error("cannot create " + tmp);
  bool bad = false;
  for (const std::string_view part : parts) {
    bad = bad || (!part.empty() &&
                  std::fwrite(part.data(), 1, part.size(), f) != part.size());
  }
  bad = (std::fflush(f) != 0) || bad;
  bad = (std::fclose(f) != 0) || bad;
  std::error_code ec;
  if (!bad) fs::rename(tmp, path, ec);
  if (bad || ec) {
    fs::remove(tmp, ec);
    return io_error(bad ? "write failed for " + tmp
                        : "rename failed for " + path);
  }
  return util::Status::ok_status();
}

std::string shard_dir_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%03zu", index);
  return buf;
}

/// Version of a "manifest-<N>" file name, or nullopt.
std::optional<std::uint64_t> manifest_version_of(std::string_view name) {
  constexpr std::string_view prefix = "manifest-";
  if (name.size() <= prefix.size() || name.substr(0, prefix.size()) != prefix) {
    return std::nullopt;
  }
  std::uint64_t version = 0;
  for (char c : name.substr(prefix.size())) {
    if (c < '0' || c > '9') return std::nullopt;
    version = version * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return version;
}

/// Sequence counter of a "seg-{r,s}-<N>.blsg" file name, or nullopt.
std::optional<std::uint64_t> segment_number_of(std::string_view name) {
  constexpr std::string_view suffix = ".blsg";
  if (name.size() < 7 + suffix.size() || name.substr(0, 4) != "seg-") {
    return std::nullopt;
  }
  if (name[4] != 'r' && name[4] != 's') return std::nullopt;
  if (name[5] != '-') return std::nullopt;
  if (name.substr(name.size() - suffix.size()) != suffix) return std::nullopt;
  std::uint64_t number = 0;
  for (char c : name.substr(6, name.size() - 6 - suffix.size())) {
    if (c < '0' || c > '9') return std::nullopt;
    number = number * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return number;
}

}  // namespace

PersistEngine::PersistEngine(std::string dir, PersistOptions options)
    : dir_{std::move(dir)}, options_{options} {
  if (options_.shards == 0) options_.shards = 1;
}

PersistEngine::~PersistEngine() {
  // Close handles only. Deliberately no checkpoint: destroying a deployment
  // must leave exactly the bytes a crash would have left.
  for (Shard& shard : shards_) {
    if (shard.wal != nullptr) std::fclose(shard.wal);
  }
}

void PersistEngine::bump(obs::Counter* c, std::uint64_t n) {
  if (c != nullptr && n > 0) c->inc(n);
}

void PersistEngine::sync_gauges() {
  if (metrics_.disk_entries != nullptr) {
    metrics_.disk_entries->set(static_cast<double>(index_.size()));
  }
  if (metrics_.recovery_ms != nullptr) {
    metrics_.recovery_ms->set(stats_.recovery_ms);
  }
}

void PersistEngine::attach_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  obs::MetricsRegistry& m = *registry;
  metrics_.wal_appends = &m.counter("blab_persist_wal_appends_total");
  metrics_.wal_bytes = &m.counter("blab_persist_wal_bytes_total");
  metrics_.segment_flushes = &m.counter("blab_persist_segment_flushes_total");
  metrics_.segment_bytes = &m.counter("blab_persist_segment_bytes_total");
  for (std::size_t c = 0; c < kCheckpointCauses; ++c) {
    metrics_.checkpoints[c] = &m.counter(
        "blab_persist_checkpoints_total",
        {{"cause", checkpoint_cause_name(static_cast<CheckpointCause>(c))}});
  }
  metrics_.compactions = &m.counter("blab_persist_compactions_total");
  metrics_.compaction_bytes = &m.counter("blab_persist_compaction_bytes_total");
  metrics_.recovered = &m.counter("blab_persist_recovered_records_total");
  metrics_.torn_tail_bytes = &m.counter("blab_persist_torn_tail_bytes_total");
  metrics_.disk_loads = &m.counter("blab_persist_disk_loads_total");
  metrics_.reclaimed = &m.counter("blab_store_retention_bytes_reclaimed_total");
  metrics_.recovery_ms = &m.gauge("blab_persist_recovery_ms");
  metrics_.disk_entries = &m.gauge("blab_persist_disk_entries");
  bump(metrics_.wal_appends, stats_.wal_appends);
  bump(metrics_.wal_bytes, stats_.wal_bytes);
  bump(metrics_.segment_flushes, stats_.segment_flushes);
  bump(metrics_.segment_bytes, stats_.segment_bytes);
  for (std::size_t c = 0; c < kCheckpointCauses; ++c) {
    bump(metrics_.checkpoints[c], stats_.checkpoints_by_cause[c]);
  }
  bump(metrics_.compactions, stats_.compactions);
  bump(metrics_.compaction_bytes, stats_.compaction_bytes);
  bump(metrics_.recovered, stats_.recovered_records);
  bump(metrics_.torn_tail_bytes, stats_.torn_tail_bytes);
  bump(metrics_.disk_loads, stats_.disk_loads);
  bump(metrics_.reclaimed, stats_.retention_bytes_reclaimed);
  sync_gauges();
}

std::string PersistEngine::shard_path(const Shard& shard) const {
  return dir_ + "/" + shard.name;
}

std::string PersistEngine::wal_path(const Shard& shard) const {
  return shard_path(shard) + "/wal.log";
}

std::size_t PersistEngine::shard_of(std::string_view workspace) const {
  if (shards_.empty()) return 0;
  // fnv1a alone clusters similar keys: its low bits, which the modulo
  // keeps, depend only on the low bits of each byte, so "vp-1" and "vp-5"
  // would always share a shard. A full-avalanche finalizer (Murmur3 fmix64
  // constants) mixes every bit into them.
  std::uint64_t x = util::fnv1a(workspace);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return static_cast<std::size_t>(x % shards_.size());
}

util::Status PersistEngine::open() {
  if (opened_) return util::Status::ok_status();
  const auto t0 = std::chrono::steady_clock::now();
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec && !fs::is_directory(dir_)) {
    return io_error("cannot create store directory " + dir_);
  }

  Manifest manifest;
  if (auto st = recover_manifest(manifest); !st.ok()) return st;

  const std::size_t count =
      manifest.shards.empty() ? options_.shards : manifest.shards.size();
  shards_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_[i].name = shard_dir_name(i);
    fs::create_directories(shard_path(shards_[i]), ec);
    if (ec && !fs::is_directory(shard_path(shards_[i]))) {
      return io_error("cannot create " + shard_path(shards_[i]));
    }
  }
  next_seq_ = std::max<std::uint64_t>(1, manifest.next_seq);
  manifest_version_ = manifest.version;

  for (std::size_t i = 0; i < count; ++i) {
    const auto& listed =
        i < manifest.shards.size()
            ? manifest.shards[i]
            : std::vector<ManifestSegment>{};
    if (auto st = recover_shard(i, listed); !st.ok()) return st;
  }

  // Garbage-collect: temp files of interrupted writes, segment files a
  // crash left unlisted (an append or checkpoint that never installed its
  // manifest), and manifests other than the chosen one and its predecessor.
  for (Shard& shard : shards_) {
    for (const auto& entry : fs::directory_iterator(shard_path(shard), ec)) {
      const std::string name = entry.path().filename().string();
      if (name.ends_with(".tmp") || (segment_number_of(name).has_value() &&
                                     !shard.segments.contains(name))) {
        fs::remove(entry.path(), ec);
      }
    }
  }
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const auto version = manifest_version_of(name);
    if (name.ends_with(".tmp") ||
        (version.has_value() && (*version > manifest_version_ ||
                                 *version + 1 < manifest_version_))) {
      fs::remove(entry.path(), ec);
    }
  }

  opened_ = true;
  stats_.recovered_records = index_.size();
  stats_.recovery_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  bump(metrics_.recovered, stats_.recovered_records);
  sync_gauges();
  return util::Status::ok_status();
}

util::Status PersistEngine::recover_manifest(Manifest& manifest) {
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto version = manifest_version_of(name); version.has_value()) {
      candidates.emplace_back(*version, entry.path().string());
    }
  }
  // Highest version that parses wins: a torn write of manifest-<N+1> simply
  // falls back to manifest-<N>.
  std::sort(candidates.rbegin(), candidates.rend());
  for (const auto& [version, path] : candidates) {
    auto bytes = read_file(path);
    if (!bytes.ok()) continue;
    auto parsed = parse_manifest(bytes.value());
    if (!parsed.ok()) {
      BLAB_WARN("persist", path << " unreadable (" << parsed.error().str()
                                << "); trying predecessor");
      continue;
    }
    manifest = std::move(parsed).take();
    return util::Status::ok_status();
  }
  manifest = Manifest{};  // fresh store
  return util::Status::ok_status();
}

util::Status PersistEngine::recover_shard(
    std::size_t shard_index, const std::vector<ManifestSegment>& segments) {
  Shard& shard = shards_[shard_index];

  for (const ManifestSegment& seg : segments) {
    if (const auto number = segment_number_of(seg.file)) {
      shard.next_segment = std::max(shard.next_segment, *number + 1);
    }
    const std::string path = shard_path(shard) + "/" + seg.file;
    auto bytes = read_file(path);
    auto parsed = bytes.ok()
                      ? parse_segment_index(bytes.value())
                      : util::Result<SegmentIndex>{bytes.error()};
    if (!parsed.ok()) {
      // A corrupt segment is dropped whole; its records are cleanly lost.
      BLAB_WARN("persist", "dropping segment " << path << ": "
                                               << parsed.error().str());
      ++stats_.segments_dropped;
      std::error_code ec;
      fs::remove(path, ec);
      continue;
    }
    SegmentMeta meta;
    meta.tier = parsed.value().tier;
    for (SegmentEntry& e : parsed.value().entries) {
      next_seq_ = std::max(next_seq_, e.id.seq + 1);
      if (index_.contains(e.id)) {
        meta.dirty = true;  // duplicate — compaction will drop it
        continue;
      }
      Entry entry;
      entry.name = std::move(e.name);
      entry.stored_at = e.stored_at;
      entry.raw_dropped = meta.tier == kTierSummary;
      entry.shard = shard_index;
      entry.segment = seg.file;
      entry.offset = e.offset;
      entry.length = e.length;
      entry.crc = e.crc;
      index_.emplace(std::move(e.id), std::move(entry));
    }
    shard.segments.emplace(seg.file, meta);
  }

  // Note replay on top of the segments. Idempotent: a crash after manifest
  // install but before WAL truncation replays notes the segments already
  // reflect, and those are no-ops.
  const std::string path = wal_path(shard);
  std::error_code ec;
  if (!fs::exists(path, ec)) return util::Status::ok_status();
  auto bytes = read_file(path);
  if (!bytes.ok()) return bytes.error();
  WalReplay replay = parse_wal(bytes.value());
  if (replay.dropped_bytes > 0) {
    BLAB_WARN("persist", path << ": dropping " << replay.dropped_bytes
                              << " torn tail byte(s)");
    stats_.torn_tail_bytes += replay.dropped_bytes;
    bump(metrics_.torn_tail_bytes, replay.dropped_bytes);
    fs::resize_file(path, replay.clean_bytes, ec);
    if (ec) return io_error("cannot truncate torn tail of " + path);
  }
  for (const WalRecord& note : replay.records) {
    next_seq_ = std::max(next_seq_, note.id.seq + 1);
    const auto it = index_.find(note.id);
    if (it == index_.end() ||
        (note.op == WalOp::kDropRaw && it->second.raw_dropped)) {
      continue;
    }
    apply_note(note.op, it);
  }
  shard.wal_size = replay.clean_bytes;
  return util::Status::ok_status();
}

util::Status PersistEngine::ensure_wal(Shard& shard) {
  if (shard.wal != nullptr) return util::Status::ok_status();
  const std::string path = wal_path(shard);
  shard.wal = std::fopen(path.c_str(), "ab");
  if (shard.wal == nullptr) return io_error("cannot open " + path);
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  shard.wal_size = ec ? 0 : size;
  return util::Status::ok_status();
}

util::Status PersistEngine::wal_write(Shard& shard, const WalRecord& note) {
  if (auto st = ensure_wal(shard); !st.ok()) return st;
  std::string frame;
  append_wal_record(frame, note);
  if (std::fwrite(frame.data(), 1, frame.size(), shard.wal) != frame.size() ||
      std::fflush(shard.wal) != 0) {
    return io_error("WAL append failed in " + shard.name);
  }
  shard.wal_size += frame.size();
  ++stats_.wal_appends;
  stats_.wal_bytes += frame.size();
  bump(metrics_.wal_appends);
  bump(metrics_.wal_bytes, frame.size());
  return util::Status::ok_status();
}

util::Result<std::string> PersistEngine::write_segment(
    Shard& shard, std::uint8_t tier, std::vector<SegmentEntry>& entries,
    const std::vector<std::string_view>& captures) {
  const std::string file = std::string("seg-") +
                           (tier == kTierRaw ? "r" : "s") + "-" +
                           std::to_string(shard.next_segment++) + ".blsg";
  const std::string header = segment_header(tier);
  std::vector<std::string_view> parts;
  parts.reserve(captures.size() + 2);
  parts.push_back(header);
  std::uint64_t offset = header.size();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].offset = offset;
    entries[i].length = captures[i].size();
    offset += captures[i].size();
    parts.push_back(captures[i]);
  }
  const std::string footer = segment_footer(entries, offset);
  // Write-time self check: the index must parse back and tile the payload.
  if (auto parsed = parse_segment_footer(footer, offset); !parsed.ok()) {
    return parsed.error();
  }
  parts.push_back(footer);
  if (auto st = write_file_atomic(shard_path(shard) + "/" + file, parts);
      !st.ok()) {
    return st.error();
  }
  const std::uint64_t bytes = offset + footer.size();
  ++stats_.segment_flushes;
  stats_.segment_bytes += bytes;
  bump(metrics_.segment_flushes);
  bump(metrics_.segment_bytes, bytes);
  return file;
}

util::Status PersistEngine::append(const CaptureId& id,
                                   const std::string& name,
                                   util::TimePoint stored_at,
                                   const ChunkedCapture& cc) {
  if (!opened_) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "persist engine not opened");
  }
  const std::size_t shard_index = shard_of(id.workspace);
  Shard& shard = shards_[shard_index];
  // The capture's image is written where it is and checksummed once; that
  // CRC is its index entry's.
  const std::string_view image = cc.serialize();
  const std::uint8_t tier = cc.raw_available() ? kTierRaw : kTierSummary;
  std::vector<SegmentEntry> entries{
      {id, name, stored_at, 0, 0, crc32c(image)}};
  auto file = write_segment(shard, tier, entries, {image});
  if (!file.ok()) return file.error();

  // The next manifest commits the append. Should it fail, the unlisted
  // segment file is left for open()'s garbage collection.
  shard.segments.emplace(file.value(), SegmentMeta{tier});
  const std::uint64_t next_seq = next_seq_;
  next_seq_ = std::max(next_seq_, id.seq + 1);
  if (auto st = install_manifest(); !st.ok()) {
    shard.segments.erase(file.value());
    next_seq_ = next_seq;
    return st;
  }
  Entry entry;
  entry.name = name;
  entry.stored_at = stored_at;
  entry.raw_dropped = tier == kTierSummary;
  entry.shard = shard_index;
  entry.segment = std::move(file).take();
  entry.offset = entries[0].offset;
  entry.length = entries[0].length;
  entry.crc = entries[0].crc;
  index_[id] = std::move(entry);
  sync_gauges();
  return util::Status::ok_status();
}

util::Status PersistEngine::note(WalOp op, const CaptureId& id) {
  if (!opened_) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "persist engine not opened");
  }
  const auto it = index_.find(id);
  if (it == index_.end() ||
      (op == WalOp::kDropRaw && it->second.raw_dropped)) {
    return util::Status::ok_status();
  }
  if (auto st = wal_write(shards_[it->second.shard], WalRecord{op, id});
      !st.ok()) {
    return st;
  }
  apply_note(op, it);
  sync_gauges();
  return util::Status::ok_status();
}

void PersistEngine::apply_note(WalOp op,
                               std::map<CaptureId, Entry>::iterator it) {
  auto& segments = shards_[it->second.shard].segments;
  if (const auto seg = segments.find(it->second.segment);
      seg != segments.end()) {
    seg->second.dirty = true;
  }
  if (op == WalOp::kDropRaw) {
    it->second.raw_dropped = true;
  } else {
    index_.erase(it);
  }
}

util::Status PersistEngine::note_drop_raw(const CaptureId& id) {
  return note(WalOp::kDropRaw, id);
}

util::Status PersistEngine::note_erase(const CaptureId& id) {
  return note(WalOp::kErase, id);
}

util::Status PersistEngine::checkpoint_shard(
    std::size_t shard_index, std::vector<std::string>& replaced) {
  Shard& shard = shards_[shard_index];

  // The surviving records of every dirty segment, by destination tier.
  struct Stream {
    std::vector<SegmentEntry> entries;
    std::vector<std::string> captures;
  };
  Stream streams[2];  // indexed by tier
  std::vector<std::string> compacted;
  for (const auto& [file, meta] : shard.segments) {
    if (!meta.dirty) continue;
    compacted.push_back(file);
    const std::string path = shard_path(shard) + "/" + file;
    auto bytes = read_file(path);
    auto parsed = bytes.ok()
                      ? parse_segment_index(bytes.value())
                      : util::Result<SegmentIndex>{bytes.error()};
    if (!parsed.ok()) {
      // Externally corrupted since open; its live records are lost. Drop
      // the dangling index entries so queries fail NOT_FOUND, not I/O.
      BLAB_WARN("persist", "compaction dropping segment " << path << ": "
                                                          << parsed.error()
                                                                 .str());
      ++stats_.segments_dropped;
      std::erase_if(index_, [&](const auto& kv) {
        return kv.second.shard == shard_index && kv.second.segment == file;
      });
      continue;
    }
    ++stats_.compactions;
    stats_.compaction_bytes += bytes.value().size();
    bump(metrics_.compactions);
    bump(metrics_.compaction_bytes, bytes.value().size());
    for (const SegmentEntry& e : parsed.value().entries) {
      const auto it = index_.find(e.id);
      if (it == index_.end() || it->second.segment != file ||
          it->second.shard != shard_index) {
        continue;  // erased, or superseded by a duplicate elsewhere
      }
      // The read-back check: the capture must still match its entry's CRC.
      auto slice = segment_capture_bytes(bytes.value(), e);
      if (!slice.ok()) return checksum_mismatch(e.id, file);
      SegmentEntry entry = e;
      std::string capture;
      if (it->second.raw_dropped) {
        // Segment demotion, from the raw stream into the summary stream.
        auto demoted = ChunkedCapture::summary_image(slice.value());
        if (!demoted.ok()) return demoted.error();
        capture = std::move(demoted).take();
        entry.crc = crc32c(capture);
      } else {
        capture = std::string{slice.value()};
      }
      Stream& stream =
          streams[it->second.raw_dropped ? kTierSummary : kTierRaw];
      stream.entries.push_back(std::move(entry));
      stream.captures.push_back(std::move(capture));
    }
  }

  // Write the new tier streams and repoint the index.
  for (const std::uint8_t tier : {kTierRaw, kTierSummary}) {
    Stream& stream = streams[tier];
    if (stream.entries.empty()) continue;
    const std::vector<std::string_view> captures(stream.captures.begin(),
                                                 stream.captures.end());
    auto file = write_segment(shard, tier, stream.entries, captures);
    if (!file.ok()) return file.error();
    for (const SegmentEntry& e : stream.entries) {
      Entry& entry = index_.at(e.id);
      entry.segment = file.value();
      entry.offset = e.offset;
      entry.length = e.length;
      entry.crc = e.crc;
    }
    shard.segments.emplace(file.value(), SegmentMeta{tier});
  }

  // Replaced segments leave the catalog now; their files are deleted by
  // checkpoint() only after the new manifest is installed.
  for (const std::string& file : compacted) {
    shard.segments.erase(file);
    replaced.push_back(shard_path(shard) + "/" + file);
  }
  return util::Status::ok_status();
}

util::Status PersistEngine::install_manifest() {
  Manifest manifest;
  manifest.version = manifest_version_ + 1;
  manifest.next_seq = next_seq_;
  manifest.shards.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (const auto& [file, meta] : shards_[i].segments) {
      manifest.shards[i].push_back(ManifestSegment{file, meta.tier});
    }
  }
  const std::string bytes = encode_manifest(manifest);
  if (auto st = write_file_atomic(
          dir_ + "/manifest-" + std::to_string(manifest.version), {bytes});
      !st.ok()) {
    return st;
  }
  manifest_version_ = manifest.version;
  // open() left at most this version's two predecessors, and every install
  // since removed the one before its own predecessor.
  if (manifest_version_ >= 2) {
    std::error_code ec;
    fs::remove(dir_ + "/manifest-" + std::to_string(manifest_version_ - 2),
               ec);
  }
  return util::Status::ok_status();
}

const char* checkpoint_cause_name(CheckpointCause cause) {
  switch (cause) {
    case CheckpointCause::kScheduled: return "scheduled";
    case CheckpointCause::kRetention: return "retention";
    case CheckpointCause::kManual: return "manual";
  }
  return "?";
}

util::Status PersistEngine::checkpoint(CheckpointCause cause) {
  if (!opened_) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "persist engine not opened");
  }
  std::vector<std::size_t> touched;
  // Old segment files must outlive the manifest install.
  std::vector<std::string> replaced;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = shards_[i];
    const bool has_dirty =
        std::any_of(shard.segments.begin(), shard.segments.end(),
                    [](const auto& kv) { return kv.second.dirty; });
    if (shard.wal_size == 0 && !has_dirty) continue;
    if (auto st = checkpoint_shard(i, replaced); !st.ok()) return st;
    touched.push_back(i);
  }
  if (touched.empty()) return util::Status::ok_status();

  // Manifest install is the commit point: everything before it is invisible
  // to recovery, everything after it is cleanup a crash may skip.
  if (auto st = install_manifest(); !st.ok()) return st;

  std::error_code ec;
  for (std::size_t i : touched) {
    Shard& shard = shards_[i];
    if (shard.wal != nullptr) {
      std::fclose(shard.wal);
      shard.wal = nullptr;
    }
    fs::resize_file(wal_path(shard), 0, ec);
    shard.wal_size = 0;
  }
  for (const std::string& path : replaced) fs::remove(path, ec);
  ++stats_.checkpoints;
  ++stats_.checkpoints_by_cause[static_cast<std::size_t>(cause)];
  bump(metrics_.checkpoints[static_cast<std::size_t>(cause)]);
  return util::Status::ok_status();
}

void PersistEngine::scan_catalog(
    util::TimePoint t0, util::TimePoint t1,
    const std::function<void(const EntryInfo&)>& fn) const {
  for (const auto& [id, entry] : index_) {
    if (entry.stored_at < t0 || entry.stored_at >= t1) continue;
    fn(EntryInfo{id, entry.name, entry.stored_at, entry.raw_dropped});
  }
}

std::uint64_t PersistEngine::run_retention(util::TimePoint now,
                                           const RetentionPolicy& policy) {
  if (!opened_) return 0;
  const std::uint64_t before = disk_usage_bytes();
  std::vector<CaptureId> erase_ids;
  std::vector<CaptureId> drop_ids;
  for (const auto& [id, entry] : index_) {
    const util::Duration age = now - entry.stored_at;
    if (age >= policy.summary_ttl) {
      erase_ids.push_back(id);
    } else if (age >= policy.raw_ttl && !entry.raw_dropped) {
      drop_ids.push_back(id);
    }
  }
  for (const CaptureId& id : erase_ids) (void)note_erase(id);
  for (const CaptureId& id : drop_ids) (void)note_drop_raw(id);
  if (auto st = checkpoint(CheckpointCause::kRetention); !st.ok()) {
    BLAB_WARN("persist", "retention checkpoint failed: " << st.str());
  }
  const std::uint64_t after = disk_usage_bytes();
  const std::uint64_t reclaimed = before > after ? before - after : 0;
  stats_.retention_bytes_reclaimed += reclaimed;
  bump(metrics_.reclaimed, reclaimed);
  return reclaimed;
}

bool PersistEngine::contains(const CaptureId& id) const {
  return index_.contains(id);
}

std::optional<PersistEngine::EntryInfo> PersistEngine::info(
    const CaptureId& id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return EntryInfo{id, it->second.name, it->second.stored_at,
                   it->second.raw_dropped};
}

std::vector<PersistEngine::EntryInfo> PersistEngine::entries() const {
  std::vector<EntryInfo> out;
  out.reserve(index_.size());
  for (const auto& [id, entry] : index_) {
    out.push_back(EntryInfo{id, entry.name, entry.stored_at,
                            entry.raw_dropped});
  }
  return out;
}

std::vector<CaptureId> PersistEngine::list(
    const std::string& workspace) const {
  std::vector<CaptureId> ids;
  for (auto it = index_.lower_bound(CaptureId{workspace, 0});
       it != index_.end() && it->first.workspace == workspace; ++it) {
    ids.push_back(it->first);
  }
  return ids;
}

std::vector<std::string> PersistEngine::workspaces() const {
  std::vector<std::string> names;
  for (const auto& [id, entry] : index_) {
    if (names.empty() || names.back() != id.workspace) {
      names.push_back(id.workspace);
    }
  }
  return names;
}

util::Result<ChunkedCapture> PersistEngine::load(const CaptureId& id) {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    return util::make_error(util::ErrorCode::kNotFound,
                            "no persisted capture " + id.str());
  }
  const Entry& entry = it->second;
  auto bytes = read_file_slice(
      shard_path(shards_[entry.shard]) + "/" + entry.segment, entry.offset,
      entry.length);
  if (!bytes.ok()) return bytes.error();
  if (crc32c(bytes.value()) != entry.crc) {
    return checksum_mismatch(id, entry.segment);
  }
  auto cc = ChunkedCapture::deserialize(bytes.value());
  if (!cc.ok()) return cc.error();
  if (entry.raw_dropped && cc.value().raw_available()) {
    cc.value().drop_raw();
  }
  ++stats_.disk_loads;
  bump(metrics_.disk_loads);
  return cc;
}

std::uint64_t PersistEngine::disk_usage_bytes() const {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir_, ec)) {
    std::error_code file_ec;
    if (entry.is_regular_file(file_ec)) {
      const auto size = entry.file_size(file_ec);
      if (!file_ec) total += size;
    }
  }
  return total;
}

}  // namespace blab::store::persist
