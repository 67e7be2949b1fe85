#include "store/persist/engine.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>
#include <system_error>
#include <utility>

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

/// The whole file, read into a buffer sized once from the file's size.
util::Result<std::string> read_file(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) return io_error("cannot open " + path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return io_error("cannot open " + path);
  std::string out;
  out.resize(size);
  const bool bad = size > 0 && std::fread(out.data(), 1, size, f) != size;
  std::fclose(f);
  if (bad) return io_error("short read at " + path);
  return out;
}

/// Temp-write + rename, so a crash never leaves a half-written file under
/// the final name (the manifest swap protocol relies on this). A failed
/// write removes its temp file; one a crash leaves behind is collected by
/// open().
util::Status write_file_atomic(const std::string& path,
                               std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return io_error("cannot create " + tmp);
  bool bad = !bytes.empty() &&
             std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size();
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

/// Why a listed entry cannot be indexed, or empty when it can: its file is
/// not a segment file name, a summary segment listed raw, already named by
/// an earlier entry (`listed`), or missing or of another size than listed.
/// One stat of the file; no segment byte is read.
std::string unusable(const std::string& dir, const ManifestEntry& entry,
                     std::set<std::string>& listed) {
  const auto name = segment_name_of(entry.file);
  if (!name.has_value()) return "not a segment file name";
  if (name->tier == kTierSummary && entry.tier == kTierRaw) {
    return "summary segment listed raw";
  }
  if (!listed.insert(entry.file).second) return "named by an earlier entry";
  std::error_code ec;
  const auto size = fs::file_size(dir + "/" + entry.file, ec);
  if (ec) return "missing";
  if (size != entry.length) {
    return "holds " + std::to_string(size) + " bytes, listed " +
           std::to_string(entry.length);
  }
  return {};
}

/// The first entry whose id is not below `id`.
template <typename Entries>
auto lower_bound_id(Entries& entries, const CaptureId& id) {
  return std::ranges::lower_bound(entries, id, {}, &ManifestEntry::id);
}

/// The entry of `id`, or null.
template <typename Entries>
auto* find_entry(Entries& entries, const CaptureId& id) {
  const auto it = lower_bound_id(entries, id);
  return it != entries.end() && it->id == id ? &*it : nullptr;
}

}  // namespace

void PersistEngine::bump(obs::Counter* c, std::uint64_t n) {
  if (c != nullptr && n > 0) c->inc(n);
}

void PersistEngine::sync_gauges() {
  if (metrics_.disk_entries != nullptr) {
    metrics_.disk_entries->set(static_cast<double>(catalog_.entries.size()));
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
  metrics_.dropped = &m.counter("blab_persist_segments_dropped_total");
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
  bump(metrics_.dropped, stats_.segments_dropped);
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

  // Every manifest is read: one of another format version refuses the
  // store before any file is touched. Of the rest, the highest version
  // that parses wins: a torn write of manifest-<N+1> simply falls back to
  // manifest-<N>. None at all is a fresh store.
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  for (const auto& file : fs::directory_iterator(dir_, ec)) {
    const std::string name = file.path().filename().string();
    if (const auto version = manifest_version_of(name); version.has_value()) {
      candidates.emplace_back(*version, file.path().string());
    }
  }
  std::sort(candidates.rbegin(), candidates.rend());
  std::optional<Manifest> chosen;
  for (const auto& [version, path] : candidates) {
    auto bytes = read_file(path);
    auto parsed = bytes.ok() ? parse_manifest(bytes.value())
                             : util::Result<Manifest>{bytes.error()};
    if (parsed.ok()) {
      if (!chosen.has_value()) {
        chosen = std::move(parsed).take();
        chosen->version = version;
      }
      continue;
    }
    if (parsed.error().code == util::ErrorCode::kFailedPrecondition) {
      return util::make_error(util::ErrorCode::kFailedPrecondition,
                              "refusing store " + dir_ + ": " + path +
                                  " is " + parsed.error().message);
    }
    BLAB_WARN("persist", path << " unreadable (" << parsed.error().str()
                              << "); trying predecessor");
  }
  if (chosen.has_value()) {
    catalog_.version = chosen->version;
    catalog_.next_seq = std::max<std::uint64_t>(1, chosen->next_seq);
    // An entry whose file breaks the one-image rule is dropped: its capture
    // is cleanly lost, and its file is collected unless another entry
    // holds it.
    std::set<std::string> listed;
    for (ManifestEntry& entry : chosen->entries) {
      if (const auto name = segment_name_of(entry.file); name.has_value()) {
        next_segment_ = std::max(next_segment_, name->number + 1);
      }
      if (const std::string why = unusable(dir_, entry, listed); !why.empty()) {
        BLAB_WARN("persist", "dropping " << entry.id.str() << " in "
                                         << entry.file << ": " << why);
        ++stats_.segments_dropped;
        continue;
      }
      catalog_.next_seq = std::max(catalog_.next_seq, entry.id.seq + 1);
      catalog_.entries.push_back(std::move(entry));
    }
  }

  // Garbage-collect: temp files of interrupted writes, segment files no
  // entry holds (an append or demotion that never installed its manifest,
  // an erase or demotion that crashed before deleting, a dropped entry's
  // file), and manifests other than the chosen one and its predecessor.
  std::set<std::string_view> live;
  for (const ManifestEntry& entry : catalog_.entries) live.insert(entry.file);
  for (const auto& file : fs::directory_iterator(dir_, ec)) {
    const std::string name = file.path().filename().string();
    const auto version = manifest_version_of(name);
    if (name.ends_with(".tmp") ||
        (segment_name_of(name).has_value() && !live.contains(name)) ||
        (version.has_value() && (*version > catalog_.version ||
                                 *version + 1 < catalog_.version))) {
      fs::remove(file.path(), ec);
    }
  }

  opened_ = true;
  stats_.recovered_records = catalog_.entries.size();
  stats_.recovery_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  bump(metrics_.recovered, stats_.recovered_records);
  bump(metrics_.dropped, stats_.segments_dropped);
  sync_gauges();
  return util::Status::ok_status();
}

util::Result<std::string> PersistEngine::write_segment(
    std::uint8_t tier, std::string_view image) {
  const std::string file = std::string("seg-") +
                           (tier == kTierRaw ? "r" : "s") + "-" +
                           std::to_string(next_segment_++) + ".blsg";
  if (auto st = write_file_atomic(dir_ + "/" + file, image); !st.ok()) {
    return st.error();
  }
  ++stats_.segment_flushes;
  stats_.segment_bytes += image.size();
  bump(metrics_.segment_flushes);
  bump(metrics_.segment_bytes, image.size());
  return file;
}

util::Result<std::string> PersistEngine::read_capture(
    const ManifestEntry& entry) const {
  auto bytes = read_file(dir_ + "/" + entry.file);
  if (bytes.ok() && (bytes.value().size() != entry.length ||
                     crc32c(bytes.value()) != entry.crc)) {
    return checksum_mismatch(entry.id, entry.file);
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
  const auto at = lower_bound_id(catalog_.entries, id);
  if (at != catalog_.entries.end() && at->id == id) {
    return util::make_error(util::ErrorCode::kAlreadyExists,
                            id.str() + " is already persisted");
  }
  // The capture's image is written where it is and checksummed once; that
  // CRC is its entry's.
  const std::string_view image = cc.serialize();
  const std::uint8_t tier = cc.raw_available() ? kTierRaw : kTierSummary;
  auto file = write_segment(tier, image);
  if (!file.ok()) return file.error();

  // The next manifest commits the append. Should it fail, the unlisted
  // segment file is left for open()'s garbage collection.
  Manifest next = catalog_;
  next.next_seq = std::max(next.next_seq, id.seq + 1);
  next.entries.insert(
      next.entries.begin() + (at - catalog_.entries.begin()),
      ManifestEntry{id, name, stored_at, std::move(file).take(), tier,
                    image.size(), crc32c(image)});
  return install_manifest(std::move(next));
}

util::Status PersistEngine::commit(const std::vector<CaptureId>& erase_ids,
                                   const std::vector<CaptureId>& drop_ids) {
  if (!opened_) return not_opened();
  Manifest next = catalog_;
  std::vector<std::string> files;
  for (const CaptureId& id : erase_ids) {
    const auto it = lower_bound_id(next.entries, id);
    if (it == next.entries.end() || it->id != id) continue;
    files.push_back(std::move(it->file));
    next.entries.erase(it);
  }
  bool dropped = false;
  for (const CaptureId& id : drop_ids) {
    ManifestEntry* entry = find_entry(next.entries, id);
    if (entry == nullptr || entry->tier == kTierSummary) continue;
    entry->tier = kTierSummary;
    dropped = true;
  }
  if (files.empty() && !dropped) return util::Status::ok_status();
  if (auto st = install_manifest(std::move(next)); !st.ok()) return st;
  // Unlisted now: a crash before a delete leaves a file open() collects.
  for (const std::string& file : files) remove_segment(file);
  return util::Status::ok_status();
}

util::Status PersistEngine::install_manifest(Manifest next) {
  next.version = catalog_.version + 1;
  if (auto st = write_file_atomic(
          dir_ + "/manifest-" + std::to_string(next.version),
          encode_manifest(next));
      !st.ok()) {
    return st;
  }
  catalog_ = std::move(next);
  ++stats_.manifest_installs;
  bump(metrics_.manifest_installs);
  // open() left at most this version's two predecessors, and every install
  // since removed the one before its own predecessor.
  if (catalog_.version >= 2) {
    std::error_code ec;
    fs::remove(dir_ + "/manifest-" + std::to_string(catalog_.version - 2),
               ec);
  }
  sync_gauges();
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
  // Each demotion points its entry in the next catalog at a new summary
  // file. The read-back check: the capture must still match its entry's
  // CRC. One that does not, or whose summary cannot be written, stays
  // listed as a summary over its raw file (a corrupt one keeps failing
  // load()), and the first such error is returned once the others are
  // committed.
  Manifest next = catalog_;
  std::vector<std::string> written;
  std::vector<std::string> replaced;
  std::uint64_t read_bytes = 0;
  util::Status first_error = util::Status::ok_status();
  const auto demote = [&](ManifestEntry& entry) -> util::Status {
    auto capture = read_capture(entry);
    if (!capture.ok()) return capture.error();
    auto image = ChunkedCapture::summary_image(capture.value());
    if (!image.ok()) return image.error();
    auto file = write_segment(kTierSummary, image.value());
    if (!file.ok()) return file.error();
    written.push_back(file.value());
    replaced.push_back(std::exchange(entry.file, std::move(file).take()));
    read_bytes += entry.length;
    entry.length = image.value().size();
    entry.crc = crc32c(image.value());
    return util::Status::ok_status();
  };
  for (ManifestEntry& entry : next.entries) {
    if (entry.tier != kTierSummary || !entry.file.starts_with("seg-r-")) {
      continue;
    }
    if (auto st = demote(entry); !st.ok() && first_error.ok()) {
      first_error = st;
    }
  }
  if (written.empty()) return first_error;

  // Manifest install is the commit point: everything before it is invisible
  // to recovery, everything after it is cleanup a crash may skip. A failed
  // install removes the summary files written for it.
  if (auto st = install_manifest(std::move(next)); !st.ok()) {
    for (const std::string& file : written) remove_segment(file);
    return st;
  }
  for (const std::string& file : replaced) remove_segment(file);
  stats_.demotion_bytes += read_bytes;
  bump(metrics_.demotion_bytes, read_bytes);
  stats_.demotions += written.size();
  bump(metrics_.demotions, written.size());
  ++stats_.checkpoints;
  ++stats_.checkpoints_by_cause[static_cast<std::size_t>(cause)];
  bump(metrics_.checkpoints[static_cast<std::size_t>(cause)]);
  return first_error;
}

void PersistEngine::scan_catalog(
    const std::function<void(const EntryInfo&)>& fn) const {
  for (const ManifestEntry& entry : catalog_.entries) {
    fn(EntryInfo{entry.id, entry.name, entry.stored_at,
                 entry.tier == kTierSummary});
  }
}

util::Status PersistEngine::retire(const std::vector<CaptureId>& erase_ids,
                                   const std::vector<CaptureId>& drop_ids,
                                   const std::function<void()>& committed) {
  const std::uint64_t before = disk_usage_bytes();
  if (auto st = commit(erase_ids, drop_ids); !st.ok()) return st;
  if (committed) committed();
  if (auto st = checkpoint(CheckpointCause::kRetention); !st.ok()) {
    BLAB_WARN("persist", "retention checkpoint failed: " << st.str());
  }
  const std::uint64_t after = disk_usage_bytes();
  const std::uint64_t reclaimed = before > after ? before - after : 0;
  stats_.retention_bytes_reclaimed += reclaimed;
  bump(metrics_.reclaimed, reclaimed);
  return util::Status::ok_status();
}

std::uint64_t PersistEngine::run_retention(util::TimePoint now,
                                           const RetentionPolicy& policy) {
  std::vector<CaptureId> erase_ids;
  std::vector<CaptureId> drop_ids;
  for (const ManifestEntry& entry : catalog_.entries) {
    using enum RetentionPolicy::Action;
    const auto action = policy.action(entry.stored_at, entry.tier == kTierRaw,
                                      now);
    if (action == kErase) erase_ids.push_back(entry.id);
    if (action == kDropRaw) drop_ids.push_back(entry.id);
  }
  const std::uint64_t reclaimed = stats_.retention_bytes_reclaimed;
  if (auto st = retire(erase_ids, drop_ids); !st.ok()) {
    BLAB_WARN("persist", "retention failed: " << st.str());
  }
  return stats_.retention_bytes_reclaimed - reclaimed;
}

bool PersistEngine::contains(const CaptureId& id) const {
  return find_entry(catalog_.entries, id) != nullptr;
}

std::optional<PersistEngine::EntryInfo> PersistEngine::info(
    const CaptureId& id) const {
  const ManifestEntry* entry = find_entry(catalog_.entries, id);
  if (entry == nullptr) return std::nullopt;
  return EntryInfo{id, entry->name, entry->stored_at,
                   entry->tier == kTierSummary};
}

util::Result<ChunkedCapture> PersistEngine::load(const CaptureId& id) {
  const ManifestEntry* entry = find_entry(catalog_.entries, id);
  if (entry == nullptr) {
    return util::make_error(util::ErrorCode::kNotFound,
                            "no persisted capture " + id.str());
  }
  auto bytes = read_capture(*entry);
  if (!bytes.ok()) return bytes.error();
  auto cc = ChunkedCapture::deserialize(bytes.value());
  if (!cc.ok()) return cc.error();
  if (entry->tier == kTierSummary && cc.value().raw_available()) {
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
