#include "store/persist/formats.hpp"

#include "store/codec.hpp"
#include "store/persist/crc32c.hpp"

namespace blab::store::persist {
namespace {

util::Error format_error(const std::string& what) {
  return util::make_error(util::ErrorCode::kInvalidArgument, what);
}

void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounded string read: length prefix must fit the remaining input.
const char* get_string(const char* p, const char* end, std::string& out) {
  std::uint32_t len = 0;
  p = get_u32(p, end, len);
  if (p == nullptr || len > static_cast<std::size_t>(end - p)) return nullptr;
  out.assign(p, len);
  return p + len;
}

const char* get_time(const char* p, const char* end, util::TimePoint& t) {
  std::uint64_t us = 0;
  p = get_u64(p, end, us);
  if (p == nullptr) return nullptr;
  t = util::TimePoint::from_micros(static_cast<std::int64_t>(us));
  return p;
}

const char* get_tier(const char* p, const char* end, std::uint8_t& tier) {
  if (p == nullptr || p == end) return nullptr;
  tier = static_cast<std::uint8_t>(*p);
  return tier == kTierRaw || tier == kTierSummary ? p + 1 : nullptr;
}

/// The smallest entry: empty strings, every fixed-width field.
constexpr std::size_t kMinEntryBytes = 4 + 8 + 4 + 8 + 4 + 1 + 8 + 4;

}  // namespace

std::string encode_manifest(const Manifest& manifest) {
  std::string out{kManifestMagic};
  put_u64(out, manifest.version);
  put_u64(out, manifest.next_seq);
  put_u64(out, manifest.entries.size());
  for (const ManifestEntry& entry : manifest.entries) {
    put_string(out, entry.id.workspace);
    put_u64(out, entry.id.seq);
    put_string(out, entry.name);
    put_u64(out, static_cast<std::uint64_t>(entry.stored_at.us()));
    put_string(out, entry.file);
    out.push_back(static_cast<char>(entry.tier));
    put_u64(out, entry.length);
    put_u32(out, entry.crc);
  }
  put_u32(out, crc32c(out));
  return out;
}

util::Result<Manifest> parse_manifest(std::string_view bytes) {
  // Another version of this format is refused, never read as garbage.
  const std::string_view magic = bytes.substr(0, kManifestMagic.size());
  if (magic.size() == kManifestMagic.size() && magic.starts_with("BLMF") &&
      magic.back() >= '0' && magic.back() <= '9' && magic != kManifestMagic) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "manifest format " + std::string{magic} +
                                ", this build reads " +
                                std::string{kManifestMagic});
  }
  const std::size_t min_size = kManifestMagic.size() + 8 + 8 + 8 + 4;
  if (bytes.size() < min_size) return format_error("manifest too short");
  if (magic != kManifestMagic) return format_error("bad manifest magic");
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  std::uint32_t crc = 0;
  (void)get_u32(bytes.data() + body.size(), bytes.data() + bytes.size(), crc);
  if (crc32c(body) != crc) return format_error("manifest checksum mismatch");

  Manifest manifest;
  const char* p = body.data() + kManifestMagic.size();
  const char* end = body.data() + body.size();
  p = get_u64(p, end, manifest.version);
  if (p != nullptr) p = get_u64(p, end, manifest.next_seq);
  std::uint64_t count = 0;
  if (p != nullptr) p = get_u64(p, end, count);
  if (p == nullptr ||
      count > static_cast<std::uint64_t>(end - p) / kMinEntryBytes) {
    return format_error("manifest entry count implausible");
  }
  manifest.entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ManifestEntry entry;
    p = get_string(p, end, entry.id.workspace);
    if (p != nullptr) p = get_u64(p, end, entry.id.seq);
    if (p != nullptr) p = get_string(p, end, entry.name);
    if (p != nullptr) p = get_time(p, end, entry.stored_at);
    if (p != nullptr) p = get_string(p, end, entry.file);
    p = get_tier(p, end, entry.tier);
    if (p != nullptr) p = get_u64(p, end, entry.length);
    if (p != nullptr) p = get_u32(p, end, entry.crc);
    if (p == nullptr) return format_error("manifest entry malformed");
    if (!manifest.entries.empty() && !(manifest.entries.back().id < entry.id)) {
      return format_error("manifest ids not strictly ascending at " +
                          entry.id.str());
    }
    manifest.entries.push_back(std::move(entry));
  }
  if (p != end) return format_error("trailing bytes after manifest");
  return manifest;
}

}  // namespace blab::store::persist
