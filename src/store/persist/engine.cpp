#include "store/persist/engine.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>
#include <system_error>

#include "obs/metrics.hpp"
#include "store/persist/crc32c.hpp"
#include "util/logging.hpp"

namespace blab::store::persist {
namespace fs = std::filesystem;

namespace {

util::Error io_error(const std::string& what) {
  return util::make_error(util::ErrorCode::kUnavailable, what);
}

util::Error not_opened() {
  return util::make_error(util::ErrorCode::kFailedPrecondition,
                          "persist engine not opened");
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

struct SegmentName {
  std::uint8_t tier = kTierRaw;
  std::uint64_t number = 0;
};

/// Tier and sequence counter of a "seg-{r,s}-<N>.blsg" file name, or
/// nullopt.
std::optional<SegmentName> segment_name_of(std::string_view name) {
  constexpr std::string_view suffix = ".blsg";
  if (name.size() < 7 + suffix.size() || name.substr(0, 4) != "seg-") {
    return std::nullopt;
  }
  if (name[4] != 'r' && name[4] != 's') return std::nullopt;
  if (name[5] != '-') return std::nullopt;
  if (name.substr(name.size() - suffix.size()) != suffix) return std::nullopt;
  SegmentName parsed;
  parsed.tier = name[4] == 'r' ? kTierRaw : kTierSummary;
  for (char c : name.substr(6, name.size() - 6 - suffix.size())) {
    if (c < '0' || c > '9') return std::nullopt;
    parsed.number = parsed.number * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return parsed;
}

}  // namespace

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
  metrics_.manifest_installs =
      &m.counter("blab_persist_manifest_installs_total");
  metrics_.segment_flushes = &m.counter("blab_persist_segment_flushes_total");
  metrics_.segment_bytes = &m.counter("blab_persist_segment_bytes_total");
  metrics_.segments_deleted =
      &m.counter("blab_persist_segments_deleted_total");
  for (std::size_t c = 0; c < kCheckpointCauses; ++c) {
    metrics_.checkpoints[c] = &m.counter(
        "blab_persist_checkpoints_total",
        {{"cause", checkpoint_cause_name(static_cast<CheckpointCause>(c))}});
  }
  metrics_.demotions = &m.counter("blab_persist_demotions_total");
  metrics_.demotion_bytes = &m.counter("blab_persist_demotion_bytes_total");
  metrics_.recovered = &m.counter("blab_persist_recovered_records_total");
  metrics_.disk_loads = &m.counter("blab_persist_disk_loads_total");
  metrics_.reclaimed = &m.counter("blab_store_retention_bytes_reclaimed_total");
  metrics_.recovery_ms = &m.gauge("blab_persist_recovery_ms");
  metrics_.disk_entries = &m.gauge("blab_persist_disk_entries");
  bump(metrics_.manifest_installs, stats_.manifest_installs);
  bump(metrics_.segment_flushes, stats_.segment_flushes);
  bump(metrics_.segment_bytes, stats_.segment_bytes);
  bump(metrics_.segments_deleted, stats_.segments_deleted);
  for (std::size_t c = 0; c < kCheckpointCauses; ++c) {
    bump(metrics_.checkpoints[c], stats_.checkpoints_by_cause[c]);
  }
  bump(metrics_.demotions, stats_.demotions);
  bump(metrics_.demotion_bytes, stats_.demotion_bytes);
  bump(metrics_.recovered, stats_.recovered_records);
  bump(metrics_.disk_loads, stats_.disk_loads);
  bump(metrics_.reclaimed, stats_.retention_bytes_reclaimed);
  sync_gauges();
}

util::Status PersistEngine::open() {
  if (opened_) return util::Status::ok_status();
  const auto t0 = std::chrono::steady_clock::now();
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec && !fs::is_directory(dir_)) {
    return io_error("cannot create store directory " + dir_);
  }

  // Highest version that parses wins: a torn write of manifest-<N+1> simply
  // falls back to manifest-<N>. None at all is a fresh store.
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  for (const auto& file : fs::directory_iterator(dir_, ec)) {
    const std::string name = file.path().filename().string();
    if (const auto version = manifest_version_of(name); version.has_value()) {
      candidates.emplace_back(*version, file.path().string());
    }
  }
  std::sort(candidates.rbegin(), candidates.rend());
  for (const auto& [version, path] : candidates) {
    auto bytes = read_file(path);
    auto parsed = bytes.ok() ? parse_manifest(bytes.value())
                             : util::Result<Manifest>{bytes.error()};
    if (!parsed.ok()) {
      BLAB_WARN("persist", path << " unreadable (" << parsed.error().str()
                                << "); trying predecessor");
      continue;
    }
    manifest_version_ = version;
    next_seq_ = std::max<std::uint64_t>(1, parsed.value().next_seq);
    for (const ManifestSegment& listed : parsed.value().segments) {
      recover_segment(listed);
    }
    break;
  }

  // Garbage-collect: temp files of interrupted writes, segment files no
  // entry holds (an append or demotion that never installed its manifest,
  // an erase or demotion that crashed before deleting, a dropped segment),
  // and manifests other than the chosen one and its predecessor.
  std::set<std::string_view> live;
  for (const auto& [id, entry] : index_) live.insert(entry.segment);
  for (const auto& file : fs::directory_iterator(dir_, ec)) {
    const std::string name = file.path().filename().string();
    const auto version = manifest_version_of(name);
    if (name.ends_with(".tmp") ||
        (segment_name_of(name).has_value() && !live.contains(name)) ||
        (version.has_value() && (*version > manifest_version_ ||
                                 *version + 1 < manifest_version_))) {
      fs::remove(file.path(), ec);
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

void PersistEngine::recover_segment(const ManifestSegment& listed) {
  const auto name = segment_name_of(listed.file);
  if (name.has_value()) {
    next_segment_ = std::max(next_segment_, name->number + 1);
  }
  const std::string path = dir_ + "/" + listed.file;
  auto bytes = name.has_value() ? read_file(path)
                                : util::Result<std::string>{io_error(
                                      "not a segment file name")};
  auto parsed = bytes.ok() ? parse_segment_index(bytes.value())
                           : util::Result<SegmentIndex>{bytes.error()};
  // A segment holds one capture, of the tier its name says. Its listed
  // tier may say summary over a raw file (a drop not yet demoted), never
  // raw over a summary one.
  std::string unusable;
  if (!parsed.ok()) {
    unusable = parsed.error().str();
  } else if (parsed.value().entries.size() != 1) {
    unusable = "holds " + std::to_string(parsed.value().entries.size()) +
               " captures";
  } else if (parsed.value().tier != name->tier ||
             (parsed.value().tier == kTierSummary &&
              listed.tier == kTierRaw)) {
    unusable = "tier disagrees with its name or the manifest";
  } else if (index_.contains(parsed.value().entries[0].id)) {
    unusable = "duplicate capture " + parsed.value().entries[0].id.str();
  }
  if (!unusable.empty()) {
    // Its capture is cleanly lost; the file is collected unless another
    // entry holds it.
    BLAB_WARN("persist", "dropping segment " << path << ": " << unusable);
    ++stats_.segments_dropped;
    return;
  }
  SegmentEntry& e = parsed.value().entries[0];
  next_seq_ = std::max(next_seq_, e.id.seq + 1);
  Entry entry;
  entry.name = std::move(e.name);
  entry.stored_at = e.stored_at;
  entry.raw_dropped = listed.tier == kTierSummary;
  entry.segment = listed.file;
  entry.length = e.length;
  entry.crc = e.crc;
  index_.emplace(std::move(e.id), std::move(entry));
}

util::Result<std::string> PersistEngine::write_segment(
    std::uint8_t tier, SegmentEntry entry, std::string_view image) {
  const std::string file = std::string("seg-") +
                           (tier == kTierRaw ? "r" : "s") + "-" +
                           std::to_string(next_segment_++) + ".blsg";
  const std::string header = segment_header(tier);
  entry.offset = header.size();
  entry.length = image.size();
  const std::uint64_t index_offset = entry.offset + entry.length;
  const std::string footer = segment_footer({entry}, index_offset);
  // Write-time self check: the index must parse back and tile the payload.
  if (auto parsed = parse_segment_footer(footer, index_offset); !parsed.ok()) {
    return parsed.error();
  }
  if (auto st = write_file_atomic(dir_ + "/" + file, {header, image, footer});
      !st.ok()) {
    return st.error();
  }
  const std::uint64_t bytes = index_offset + footer.size();
  ++stats_.segment_flushes;
  stats_.segment_bytes += bytes;
  bump(metrics_.segment_flushes);
  bump(metrics_.segment_bytes, bytes);
  return file;
}

util::Result<std::string> PersistEngine::read_capture(
    const CaptureId& id, const Entry& entry) const {
  auto bytes = read_file_slice(dir_ + "/" + entry.segment, kSegmentHeaderBytes,
                               entry.length);
  if (bytes.ok() && crc32c(bytes.value()) != entry.crc) {
    return checksum_mismatch(id, entry.segment);
  }
  return bytes;
}

void PersistEngine::remove_segment(const std::string& file) {
  std::error_code ec;
  if (fs::remove(dir_ + "/" + file, ec)) {
    ++stats_.segments_deleted;
    bump(metrics_.segments_deleted);
  }
}

util::Status PersistEngine::append(const CaptureId& id,
                                   const std::string& name,
                                   util::TimePoint stored_at,
                                   const ChunkedCapture& cc) {
  if (!opened_) return not_opened();
  if (index_.contains(id)) {
    return util::make_error(util::ErrorCode::kAlreadyExists,
                            id.str() + " is already persisted");
  }
  // The capture's image is written where it is and checksummed once; that
  // CRC is its index entry's.
  const std::string_view image = cc.serialize();
  Entry entry;
  entry.name = name;
  entry.stored_at = stored_at;
  entry.raw_dropped = !cc.raw_available();
  entry.length = image.size();
  entry.crc = crc32c(image);
  auto file = write_segment(entry.raw_dropped ? kTierSummary : kTierRaw,
                            {id, name, stored_at, 0, 0, entry.crc}, image);
  if (!file.ok()) return file.error();
  entry.segment = std::move(file).take();

  // The next manifest commits the append. Should it fail, the unlisted
  // segment file is left for open()'s garbage collection.
  const std::uint64_t next_seq = next_seq_;
  next_seq_ = std::max(next_seq_, id.seq + 1);
  index_.emplace(id, std::move(entry));
  if (auto st = install_manifest(); !st.ok()) {
    index_.erase(id);
    next_seq_ = next_seq;
    return st;
  }
  sync_gauges();
  return util::Status::ok_status();
}

util::Status PersistEngine::drop_raw(const std::vector<CaptureId>& ids) {
  if (!opened_) return not_opened();
  std::vector<Entry*> dropped;
  for (const CaptureId& id : ids) {
    const auto it = index_.find(id);
    if (it == index_.end() || it->second.raw_dropped) continue;
    it->second.raw_dropped = true;
    dropped.push_back(&it->second);
  }
  if (dropped.empty()) return util::Status::ok_status();
  if (auto st = install_manifest(); !st.ok()) {
    for (Entry* entry : dropped) entry->raw_dropped = false;
    return st;
  }
  return util::Status::ok_status();
}

util::Status PersistEngine::erase(const std::vector<CaptureId>& ids) {
  if (!opened_) return not_opened();
  std::vector<std::map<CaptureId, Entry>::node_type> erased;
  for (const CaptureId& id : ids) {
    if (auto node = index_.extract(id)) erased.push_back(std::move(node));
  }
  if (erased.empty()) return util::Status::ok_status();
  if (auto st = install_manifest(); !st.ok()) {
    for (auto& node : erased) index_.insert(std::move(node));
    return st;
  }
  // Unlisted now: a crash before a delete leaves a file open() collects.
  for (const auto& node : erased) remove_segment(node.mapped().segment);
  sync_gauges();
  return util::Status::ok_status();
}

util::Status PersistEngine::install_manifest() {
  Manifest manifest;
  manifest.version = manifest_version_ + 1;
  manifest.next_seq = next_seq_;
  manifest.segments.reserve(index_.size());
  for (const auto& [id, entry] : index_) {
    manifest.segments.push_back(
        {entry.segment, entry.raw_dropped ? kTierSummary : kTierRaw});
  }
  const std::string bytes = encode_manifest(manifest);
  if (auto st = write_file_atomic(
          dir_ + "/manifest-" + std::to_string(manifest.version), {bytes});
      !st.ok()) {
    return st;
  }
  manifest_version_ = manifest.version;
  ++stats_.manifest_installs;
  bump(metrics_.manifest_installs);
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
  if (!opened_) return not_opened();
  // A demotion's new file, length and crc; swapped into its entry for the
  // install, after which it holds the raw file's.
  struct Demotion {
    Entry* entry;
    std::string segment;
    std::uint64_t length;
    std::uint32_t crc;
    void swap() {
      std::swap(entry->segment, segment);
      std::swap(entry->length, length);
      std::swap(entry->crc, crc);
    }
  };
  std::vector<Demotion> demotions;
  for (auto& [id, entry] : index_) {
    if (!entry.raw_dropped || !entry.segment.starts_with("seg-r-")) continue;
    // The read-back check: the capture must still match its entry's CRC.
    auto capture = read_capture(id, entry);
    if (!capture.ok()) return capture.error();
    auto image = ChunkedCapture::summary_image(capture.value());
    if (!image.ok()) return image.error();
    const std::uint32_t crc = crc32c(image.value());
    auto file = write_segment(
        kTierSummary, {id, entry.name, entry.stored_at, 0, 0, crc},
        image.value());
    if (!file.ok()) return file.error();
    demotions.push_back(
        {&entry, std::move(file).take(), image.value().size(), crc});
  }
  if (demotions.empty()) return util::Status::ok_status();

  // Manifest install is the commit point: everything before it is invisible
  // to recovery, everything after it is cleanup a crash may skip.
  for (Demotion& d : demotions) d.swap();
  if (auto st = install_manifest(); !st.ok()) {
    for (Demotion& d : demotions) d.swap();
    return st;
  }
  for (const Demotion& d : demotions) {
    remove_segment(d.segment);
    stats_.demotion_bytes += d.length;
    bump(metrics_.demotion_bytes, d.length);
  }
  stats_.demotions += demotions.size();
  bump(metrics_.demotions, demotions.size());
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
  util::Status st = erase(erase_ids);
  if (st.ok()) st = drop_raw(drop_ids);
  if (st.ok()) st = checkpoint(CheckpointCause::kRetention);
  if (!st.ok()) BLAB_WARN("persist", "retention failed: " << st.str());
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
  auto bytes = read_capture(id, it->second);
  if (!bytes.ok()) return bytes.error();
  auto cc = ChunkedCapture::deserialize(bytes.value());
  if (!cc.ok()) return cc.error();
  if (it->second.raw_dropped && cc.value().raw_available()) {
    cc.value().drop_raw();
  }
  ++stats_.disk_loads;
  bump(metrics_.disk_loads);
  return cc;
}

std::uint64_t PersistEngine::disk_usage_bytes() const {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& file : fs::directory_iterator(dir_, ec)) {
    std::error_code file_ec;
    if (file.is_regular_file(file_ec)) {
      const auto size = file.file_size(file_ec);
      if (!file_ec) total += size;
    }
  }
  return total;
}

}  // namespace blab::store::persist
