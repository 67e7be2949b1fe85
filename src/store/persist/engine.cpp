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
/// `segment` is the entry's file; empty means the shard WAL.
util::Error checksum_mismatch(const CaptureId& id, const std::string& segment) {
  return io_error("checksum mismatch reading " + id.str() + " from " +
                  (segment.empty() ? std::string{"wal.log"} : segment));
}

util::Result<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return io_error("cannot open " + path);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    out.append(buf, n);
    if (n < sizeof buf) break;
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return io_error("read failed for " + path);
  return out;
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

/// Temp-write + rename, so a crash never leaves a half-written file under
/// the final name (the manifest swap protocol relies on this).
util::Status write_file_atomic(const std::string& path,
                               std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return io_error("cannot create " + tmp);
  bool bad = bytes.size() > 0 &&
             std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size();
  bad = (std::fflush(f) != 0) || bad;
  bad = (std::fclose(f) != 0) || bad;
  if (bad) return io_error("write failed for " + tmp);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return io_error("rename failed for " + path);
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
  if (options_.ring_points == 0) options_.ring_points = 1;
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

namespace {

/// fnv1a alone clusters similar keys ("vp-1"/"vp-2" differ only in trailing
/// bytes, which one FNV multiply cannot push into the high bits a 64-bit
/// ring compare is dominated by), so ring placement finalizes it with a
/// full-avalanche mix (Murmur3 fmix64 constants).
std::uint64_t ring_hash(std::string_view key) {
  std::uint64_t x = util::fnv1a(key);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

void PersistEngine::build_ring() {
  ring_.clear();
  ring_.reserve(shards_.size() * options_.ring_points);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (std::size_t v = 0; v < options_.ring_points; ++v) {
      const std::string label =
          shards_[s].name + "#" + std::to_string(v);
      ring_.emplace_back(ring_hash(label), s);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t PersistEngine::shard_of(std::string_view workspace) const {
  if (ring_.empty()) return 0;
  const std::uint64_t h = ring_hash(workspace);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const auto& point, std::uint64_t key) { return point.first < key; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
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
  build_ring();
  next_seq_ = std::max<std::uint64_t>(1, manifest.next_seq);
  manifest_version_ = manifest.version;

  for (std::size_t i = 0; i < count; ++i) {
    const auto& listed =
        i < manifest.shards.size()
            ? manifest.shards[i]
            : std::vector<ManifestSegment>{};
    if (auto st = recover_shard(i, listed); !st.ok()) return st;
  }

  // Garbage-collect: segment files a crashed checkpoint wrote but never
  // installed, and manifests other than the chosen one and its predecessor.
  for (Shard& shard : shards_) {
    for (const auto& entry : fs::directory_iterator(shard_path(shard), ec)) {
      const std::string name = entry.path().filename().string();
      if (segment_number_of(name).has_value() &&
          !shard.segments.contains(name)) {
        fs::remove(entry.path(), ec);
      }
    }
  }
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const auto version = manifest_version_of(name);
    if (version.has_value() &&
        (*version > manifest_version_ || *version + 1 < manifest_version_)) {
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
      // A corrupt segment is dropped whole; any of its records still in the
      // WAL are recovered below, the rest are cleanly lost.
      BLAB_WARN("persist", "dropping segment " << path << ": "
                                               << parsed.error().str());
      ++stats_.segments_dropped;
      std::error_code ec;
      fs::remove(path, ec);
      continue;
    }
    SegmentMeta meta;
    meta.tier = parsed.value().tier;
    meta.entry_count = parsed.value().entries.size();
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
      ++meta.live_count;
    }
    shard.segments.emplace(seg.file, meta);
  }

  // WAL replay on top of the segments. Idempotent: a crash after manifest
  // install but before WAL truncation replays records that are already in
  // segments — appends of known ids and redundant notes are no-ops.
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
  for (WalRecord& record : replay.records) {
    next_seq_ = std::max(next_seq_, record.id.seq + 1);
    switch (record.op) {
      case WalOp::kAppend: {
        if (index_.contains(record.id)) break;
        auto cc = ChunkedCapture::deserialize(record.capture);
        if (!cc.ok()) {
          BLAB_WARN("persist", "skipping unreadable WAL record "
                                   << record.id.str() << ": "
                                   << cc.error().str());
          break;
        }
        Entry entry;
        entry.name = std::move(record.name);
        entry.stored_at = record.stored_at;
        entry.raw_dropped = !cc.value().raw_available();
        entry.shard = shard_index;
        entry.offset = record.capture_offset;
        entry.length = record.capture.size();
        entry.crc = crc32c(record.capture);
        index_.emplace(std::move(record.id), std::move(entry));
        break;
      }
      case WalOp::kDropRaw: {
        const auto it = index_.find(record.id);
        if (it == index_.end() || it->second.raw_dropped) break;
        it->second.raw_dropped = true;
        if (!it->second.segment.empty()) {
          const auto seg = shard.segments.find(it->second.segment);
          if (seg != shard.segments.end() && seg->second.tier == kTierRaw) {
            seg->second.dirty = true;
          }
        }
        break;
      }
      case WalOp::kErase: {
        const auto it = index_.find(record.id);
        if (it == index_.end()) break;
        if (!it->second.segment.empty()) {
          const auto seg = shard.segments.find(it->second.segment);
          if (seg != shard.segments.end()) {
            seg->second.dirty = true;
            if (seg->second.live_count > 0) --seg->second.live_count;
          }
        }
        index_.erase(it);
        break;
      }
    }
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

util::Status PersistEngine::wal_write(Shard& shard, const WalRecord& record,
                                      std::string_view capture,
                                      std::uint32_t capture_crc) {
  if (auto st = ensure_wal(shard); !st.ok()) return st;
  // The frame head, then the capture bytes where they already are: the
  // frame is never assembled in memory.
  const std::string head =
      wal_frame_head(record, capture.size(), capture_crc);
  const auto write = [&](std::string_view bytes) {
    return bytes.empty() ||
           std::fwrite(bytes.data(), 1, bytes.size(), shard.wal) ==
               bytes.size();
  };
  if (!write(head) || !write(capture) || std::fflush(shard.wal) != 0) {
    return io_error("WAL append failed in " + shard.name);
  }
  const std::uint64_t frame = head.size() + capture.size();
  shard.wal_size += frame;
  ++stats_.wal_appends;
  stats_.wal_bytes += frame;
  bump(metrics_.wal_appends);
  bump(metrics_.wal_bytes, frame);
  return util::Status::ok_status();
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
  WalRecord record;
  record.op = WalOp::kAppend;
  record.id = id;
  record.name = name;
  record.stored_at = stored_at;
  // The capture's image is journaled in place and checksummed once; the
  // frame CRC is combined from this one.
  const std::string_view image = cc.serialize();
  const std::uint32_t crc = crc32c(image);
  if (auto st = wal_write(shard, record, image, crc); !st.ok()) return st;

  Entry entry;
  entry.name = name;
  entry.stored_at = stored_at;
  entry.raw_dropped = !cc.raw_available();
  entry.shard = shard_index;
  // The capture bytes are the frame's final field.
  entry.offset = shard.wal_size - image.size();
  entry.length = image.size();
  entry.crc = crc;
  index_[id] = std::move(entry);
  next_seq_ = std::max(next_seq_, id.seq + 1);
  sync_gauges();
  if (shard.wal_size > options_.wal_checkpoint_bytes) {
    return checkpoint(CheckpointCause::kBytes);
  }
  return util::Status::ok_status();
}

util::Status PersistEngine::note_drop_raw(const CaptureId& id) {
  if (!opened_) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "persist engine not opened");
  }
  const auto it = index_.find(id);
  if (it == index_.end() || it->second.raw_dropped) {
    return util::Status::ok_status();
  }
  WalRecord record;
  record.op = WalOp::kDropRaw;
  record.id = id;
  Shard& shard = shards_[it->second.shard];
  if (auto st = wal_write(shard, record, {}, 0); !st.ok()) return st;
  it->second.raw_dropped = true;
  if (!it->second.segment.empty()) {
    const auto seg = shard.segments.find(it->second.segment);
    if (seg != shard.segments.end() && seg->second.tier == kTierRaw) {
      seg->second.dirty = true;
    }
  }
  return util::Status::ok_status();
}

util::Status PersistEngine::note_erase(const CaptureId& id) {
  if (!opened_) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "persist engine not opened");
  }
  const auto it = index_.find(id);
  if (it == index_.end()) return util::Status::ok_status();
  WalRecord record;
  record.op = WalOp::kErase;
  record.id = id;
  Shard& shard = shards_[it->second.shard];
  if (auto st = wal_write(shard, record, {}, 0); !st.ok()) return st;
  if (!it->second.segment.empty()) {
    const auto seg = shard.segments.find(it->second.segment);
    if (seg != shard.segments.end()) {
      seg->second.dirty = true;
      if (seg->second.live_count > 0) --seg->second.live_count;
    }
  }
  index_.erase(it);
  sync_gauges();
  return util::Status::ok_status();
}

util::Status PersistEngine::checkpoint_shard(std::size_t shard_index) {
  Shard& shard = shards_[shard_index];

  // Gather everything the new segments must hold, by destination tier.
  std::vector<SegmentRecord> raw_records;
  std::vector<SegmentRecord> summary_records;
  const auto add_record = [&](const CaptureId& id, const Entry& entry,
                              std::string bytes) -> util::Status {
    SegmentRecord record;
    record.id = id;
    record.name = entry.name;
    record.stored_at = entry.stored_at;
    if (entry.raw_dropped) {
      // Segment demotion, from the raw stream into the summary stream.
      auto demoted = ChunkedCapture::summary_image(bytes);
      if (!demoted.ok()) return demoted.error();
      record.capture = std::move(demoted).take();
      summary_records.push_back(std::move(record));
    } else {
      record.capture = std::move(bytes);
      raw_records.push_back(std::move(record));
    }
    return util::Status::ok_status();
  };

  // WAL-resident entries, in id order (map order).
  if (shard.wal != nullptr) std::fflush(shard.wal);
  for (const auto& [id, entry] : index_) {
    if (entry.shard != shard_index || !entry.segment.empty()) continue;
    auto bytes = read_file_slice(wal_path(shard), entry.offset, entry.length);
    if (!bytes.ok()) return bytes.error();
    // Demotion re-encodes the capture, so a raw-dropped record is checked
    // here; raw records are checked against the CRCs build_segment seals.
    if (entry.raw_dropped && crc32c(bytes.value()) != entry.crc) {
      return checksum_mismatch(id, entry.segment);
    }
    if (auto st = add_record(id, entry, std::move(bytes).take()); !st.ok()) {
      return st;
    }
  }

  // Dirty segments: rewrite their surviving records into the new streams.
  std::vector<std::string> replaced;
  for (const auto& [file, meta] : shard.segments) {
    if (!meta.dirty) continue;
    replaced.push_back(file);
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
      auto slice = segment_capture_bytes(bytes.value(), e);
      if (!slice.ok()) return slice.error();
      if (auto st = add_record(e.id, it->second, std::string{slice.value()});
          !st.ok()) {
        return st;
      }
    }
  }

  // Write the new tier streams and repoint the index.
  const auto write_stream =
      [&](std::uint8_t tier,
          const std::vector<SegmentRecord>& records) -> util::Status {
    if (records.empty()) return util::Status::ok_status();
    const std::string file = std::string("seg-") +
                             (tier == kTierRaw ? "r" : "s") + "-" +
                             std::to_string(shard.next_segment++) + ".blsg";
    const std::string image = build_segment(tier, records);
    // Write-time self check: what we just built must parse back, and raw
    // records must seal under the CRC their index entry recorded.
    auto parsed = parse_segment_index(image);
    if (!parsed.ok()) return parsed.error();
    if (tier == kTierRaw) {
      for (const SegmentEntry& e : parsed.value().entries) {
        const Entry& source = index_.at(e.id);
        if (e.crc != source.crc) return checksum_mismatch(e.id, source.segment);
      }
    }
    if (auto st = write_file_atomic(shard_path(shard) + "/" + file, image);
        !st.ok()) {
      return st;
    }
    for (SegmentEntry& e : parsed.value().entries) {
      Entry& entry = index_[e.id];
      entry.shard = shard_index;
      entry.segment = file;
      entry.offset = e.offset;
      entry.length = e.length;
      entry.crc = e.crc;
      entry.raw_dropped = tier == kTierSummary;
    }
    SegmentMeta meta;
    meta.tier = tier;
    meta.entry_count = records.size();
    meta.live_count = records.size();
    shard.segments.emplace(file, meta);
    ++stats_.segment_flushes;
    stats_.segment_bytes += image.size();
    bump(metrics_.segment_flushes);
    bump(metrics_.segment_bytes, image.size());
    return util::Status::ok_status();
  };
  if (auto st = write_stream(kTierRaw, raw_records); !st.ok()) return st;
  if (auto st = write_stream(kTierSummary, summary_records); !st.ok()) {
    return st;
  }

  // Replaced segments leave the catalog now; their files are deleted by
  // checkpoint() only after the new manifest is installed.
  for (const std::string& file : replaced) shard.segments.erase(file);
  return util::Status::ok_status();
}

util::Status PersistEngine::install_manifest() {
  Manifest manifest;
  manifest.version = ++manifest_version_;
  manifest.next_seq = next_seq_;
  manifest.shards.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (const auto& [file, meta] : shards_[i].segments) {
      manifest.shards[i].push_back(ManifestSegment{file, meta.tier});
    }
  }
  return write_file_atomic(dir_ + "/manifest-" +
                               std::to_string(manifest.version),
                           encode_manifest(manifest));
}

const char* checkpoint_cause_name(CheckpointCause cause) {
  switch (cause) {
    case CheckpointCause::kBytes: return "bytes";
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
  bool changed = false;
  std::vector<std::size_t> touched;
  // Old segment files must outlive the manifest install, so note what the
  // catalog held before compaction rewrites it.
  std::vector<std::string> before;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    const bool has_dirty =
        std::any_of(shard.segments.begin(), shard.segments.end(),
                    [](const auto& kv) { return kv.second.dirty; });
    if (shard.wal_size == 0 && !has_dirty) continue;
    for (const auto& [file, meta] : shard.segments) {
      before.push_back(shard_path(shard) + "/" + file);
    }
    if (auto st = checkpoint_shard(i); !st.ok()) return st;
    touched.push_back(i);
    changed = true;
  }
  if (!changed) return util::Status::ok_status();

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
  for (const std::string& path : before) {
    const std::string file = fs::path(path).filename().string();
    bool still_live = false;
    for (const Shard& shard : shards_) {
      if (shard.segments.contains(file) &&
          path == shard_path(shard) + "/" + file) {
        still_live = true;
        break;
      }
    }
    if (!still_live) fs::remove(path, ec);
  }
  // Keep the previous manifest as the recovery fallback; prune older ones.
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const auto version = manifest_version_of(entry.path().filename().string());
    if (version.has_value() && *version + 1 < manifest_version_) {
      fs::remove(entry.path(), ec);
    }
  }
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
  Shard& shard = shards_[entry.shard];
  if (entry.segment.empty() && shard.wal != nullptr) std::fflush(shard.wal);
  auto bytes = read_file_slice(entry.segment.empty()
                                   ? wal_path(shard)
                                   : shard_path(shard) + "/" + entry.segment,
                               entry.offset, entry.length);
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
