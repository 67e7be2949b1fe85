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

}  // namespace

std::string segment_header(std::uint8_t tier) {
  std::string out{kSegmentMagic};
  out.push_back(static_cast<char>(tier));
  return out;
}

std::string segment_footer(const std::vector<SegmentEntry>& entries,
                           std::uint64_t index_offset) {
  std::string out;
  put_u64(out, entries.size());
  for (const SegmentEntry& entry : entries) {
    put_string(out, entry.id.workspace);
    put_u64(out, entry.id.seq);
    put_string(out, entry.name);
    put_u64(out, static_cast<std::uint64_t>(entry.stored_at.us()));
    put_u64(out, entry.offset);
    put_u64(out, entry.length);
    put_u32(out, entry.crc);
  }
  const std::uint32_t index_crc = crc32c(out);
  put_u64(out, index_offset);
  put_u32(out, index_crc);
  out.append(kSegmentEndMagic);
  return out;
}

std::string build_segment(std::uint8_t tier,
                          const std::vector<SegmentRecord>& records) {
  std::string out = segment_header(tier);
  std::vector<SegmentEntry> entries;
  entries.reserve(records.size());
  for (const SegmentRecord& record : records) {
    SegmentEntry entry;
    entry.id = record.id;
    entry.name = record.name;
    entry.stored_at = record.stored_at;
    entry.offset = out.size();
    entry.length = record.capture.size();
    entry.crc = crc32c(record.capture);
    out.append(record.capture);
    entries.push_back(std::move(entry));
  }
  out.append(segment_footer(entries, out.size()));
  return out;
}

util::Result<std::vector<SegmentEntry>> parse_segment_footer(
    std::string_view footer, std::uint64_t index_offset) {
  if (footer.size() < 8 + kSegmentTrailerBytes) {
    return format_error("segment footer too short");
  }
  const std::string_view trailer =
      footer.substr(footer.size() - kSegmentTrailerBytes);
  if (trailer.substr(kSegmentTrailerBytes - kSegmentEndMagic.size()) !=
      kSegmentEndMagic) {
    return format_error("bad segment end magic");
  }
  std::uint64_t stored_offset = 0;
  std::uint32_t index_crc = 0;
  const char* t = trailer.data();
  const char* t_end = t + trailer.size();
  t = get_u64(t, t_end, stored_offset);
  t = get_u32(t, t_end, index_crc);
  if (t == nullptr || stored_offset != index_offset ||
      index_offset < kSegmentHeaderBytes) {
    return format_error("segment index offset out of range");
  }
  const std::string_view index_bytes =
      footer.substr(0, footer.size() - kSegmentTrailerBytes);
  if (crc32c(index_bytes) != index_crc) {
    return format_error("segment index checksum mismatch");
  }
  const char* p = index_bytes.data();
  const char* end = p + index_bytes.size();
  std::uint64_t count = 0;
  p = get_u64(p, end, count);
  // Each entry is at least 44 bytes, so a huge count cannot be honest.
  if (p == nullptr || count > index_bytes.size() / 44) {
    return format_error("segment entry count implausible");
  }
  std::vector<SegmentEntry> entries;
  entries.reserve(count);
  // The payload region must be tiled densely, in order, with no gaps: that
  // makes the file canonical and every payload byte accounted for.
  std::uint64_t expected_offset = kSegmentHeaderBytes;
  for (std::uint64_t i = 0; i < count; ++i) {
    SegmentEntry entry;
    p = get_string(p, end, entry.id.workspace);
    if (p != nullptr) p = get_u64(p, end, entry.id.seq);
    if (p != nullptr) p = get_string(p, end, entry.name);
    if (p != nullptr) p = get_time(p, end, entry.stored_at);
    if (p != nullptr) p = get_u64(p, end, entry.offset);
    if (p != nullptr) p = get_u64(p, end, entry.length);
    if (p != nullptr) p = get_u32(p, end, entry.crc);
    if (p == nullptr) return format_error("segment index entry truncated");
    if (entry.offset != expected_offset ||
        entry.length > index_offset - entry.offset) {
      return format_error("segment payload not densely tiled");
    }
    expected_offset = entry.offset + entry.length;
    entries.push_back(std::move(entry));
  }
  if (p != end) return format_error("trailing bytes after segment index");
  if (expected_offset != index_offset) {
    return format_error("segment payload region not fully covered");
  }
  return entries;
}

util::Result<SegmentIndex> parse_segment_index(std::string_view file) {
  if (file.size() < kSegmentHeaderBytes + 8 + kSegmentTrailerBytes) {
    return format_error("segment too short");
  }
  if (file.substr(0, kSegmentMagic.size()) != kSegmentMagic) {
    return format_error("bad segment magic");
  }
  SegmentIndex index;
  index.tier = static_cast<std::uint8_t>(file[kSegmentMagic.size()]);
  if (index.tier != kTierRaw && index.tier != kTierSummary) {
    return format_error("unknown segment tier");
  }
  // The trailer says where the footer starts; parse_segment_footer checks
  // that it says so again.
  std::uint64_t index_offset = 0;
  const char* t = file.data() + file.size() - kSegmentTrailerBytes;
  (void)get_u64(t, t + 8, index_offset);
  const std::size_t index_end = file.size() - kSegmentTrailerBytes;
  if (index_offset < kSegmentHeaderBytes || index_offset > index_end - 8) {
    return format_error("segment index offset out of range");
  }
  auto entries = parse_segment_footer(file.substr(index_offset), index_offset);
  if (!entries.ok()) return entries.error();
  index.entries = std::move(entries).take();
  return index;
}

util::Result<std::string_view> segment_capture_bytes(std::string_view file,
                                                     const SegmentEntry& e) {
  if (file.size() < kSegmentTrailerBytes ||
      e.offset > file.size() - kSegmentTrailerBytes ||
      e.length > file.size() - kSegmentTrailerBytes - e.offset) {
    return format_error("segment entry out of range");
  }
  const std::string_view bytes = file.substr(e.offset, e.length);
  if (crc32c(bytes) != e.crc) {
    return format_error("segment record checksum mismatch for " + e.id.str());
  }
  return bytes;
}

std::string encode_manifest(const Manifest& manifest) {
  std::string out{kManifestMagic};
  put_u64(out, manifest.version);
  put_u64(out, manifest.next_seq);
  put_u64(out, manifest.segments.size());
  for (const ManifestSegment& seg : manifest.segments) {
    put_string(out, seg.file);
    out.push_back(static_cast<char>(seg.tier));
  }
  put_u32(out, crc32c(out));
  return out;
}

util::Result<Manifest> parse_manifest(std::string_view bytes) {
  const std::size_t min_size = kManifestMagic.size() + 8 + 8 + 8 + 4;
  if (bytes.size() < min_size) return format_error("manifest too short");
  if (bytes.substr(0, kManifestMagic.size()) != kManifestMagic) {
    return format_error("bad manifest magic");
  }
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
  // Each segment entry is at least 5 bytes.
  if (p == nullptr || count > static_cast<std::uint64_t>(end - p) / 5) {
    return format_error("manifest segment list implausible");
  }
  manifest.segments.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ManifestSegment seg;
    p = get_string(p, end, seg.file);
    if (p == nullptr || p == end) {
      return format_error("manifest segment entry truncated");
    }
    seg.tier = static_cast<std::uint8_t>(*p++);
    if (seg.tier != kTierRaw && seg.tier != kTierSummary) {
      return format_error("manifest segment tier unknown");
    }
    manifest.segments.push_back(std::move(seg));
  }
  if (p != end) return format_error("trailing bytes after manifest");
  return manifest;
}

}  // namespace blab::store::persist
