// Fuzz target: the persistent capture store's wire formats — segment
// index/trailer parsing and the versioned manifest.
//
// Modes (first input byte):
//   0: arbitrary bytes through parse_segment_index; accepted images must
//      have a dense, in-bounds index, per-entry CRCs must police every
//      payload slice, and when all payloads checksum, rebuilding from the
//      parsed entries must be byte-identical. The same bytes also check the
//      crc32c() implementation selected for this CPU against the table
//      reference, whole and chained across a split. Also a structured
//      build/parse round-trip, in which the image must equal its header,
//      payloads and separately built footer back to back (the engine
//      writes segments that way);
//   1: arbitrary bytes through parse_manifest; accepted manifests must
//      re-encode byte-identically (canonical format). Also a structured
//      round-trip with a corruption pass.
#include <string>
#include <vector>

#include "fuzz_input.hpp"
#include "store/persist/crc32c.hpp"
#include "store/persist/crc32c_internal.hpp"
#include "store/persist/formats.hpp"
#include "util/time.hpp"

namespace {

namespace persist = blab::store::persist;
using blab::util::TimePoint;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  blab::fuzz::FuzzInput in{data, size};
  switch (in.u8() % 2) {
    case 0: {
      if (in.u8() & 1) {
        const std::string bytes{in.rest()};
        // Differential CRC check. The split point comes from the reference
        // CRC, so no input byte is spent on it and the corpus keeps its
        // meaning.
        const std::string_view view{bytes};
        const std::uint32_t reference = persist::detail::crc32c_table(view);
        FUZZ_ASSERT(persist::crc32c(view) == reference);
        const std::size_t split = reference % (view.size() + 1);
        FUZZ_ASSERT(persist::crc32c(view.substr(split),
                                    persist::crc32c(view.substr(0, split))) ==
                    reference);
        const auto parsed = persist::parse_segment_index(bytes);
        if (parsed.ok()) {
          // The index CRC seals only the index region: an image can carry a
          // valid index over corrupt payload bytes, which the per-entry CRC
          // then catches. Canonical rebuild only holds when every payload
          // checksums.
          std::vector<persist::SegmentRecord> records;
          bool payloads_ok = true;
          for (const persist::SegmentEntry& e : parsed.value().entries) {
            const auto payload = persist::segment_capture_bytes(bytes, e);
            if (!payload.ok()) {
              payloads_ok = false;
              break;
            }
            records.push_back({e.id, e.name, e.stored_at,
                               std::string{payload.value()}});
          }
          if (payloads_ok) {
            FUZZ_ASSERT(persist::build_segment(parsed.value().tier, records) ==
                        bytes);
          }
        }
        break;
      }
      const std::uint8_t tier =
          (in.u8() & 1) ? persist::kTierSummary : persist::kTierRaw;
      const std::size_t count = in.u8() % 5;
      std::vector<persist::SegmentRecord> records;
      for (std::size_t i = 0; i < count; ++i) {
        persist::SegmentRecord r;
        r.id.workspace = "ws-" + std::to_string(in.u8() % 4);
        r.id.seq = in.u16();
        r.name = in.bytes(in.u8() % 16);
        r.stored_at =
            TimePoint::from_micros(static_cast<std::int64_t>(in.u32()));
        r.capture = in.bytes(in.u8());
        records.push_back(std::move(r));
      }
      std::string image = persist::build_segment(tier, records);
      {
        const auto parsed = persist::parse_segment_index(image);
        FUZZ_ASSERT(parsed.ok());
        FUZZ_ASSERT(parsed.value().tier == tier);
        FUZZ_ASSERT(parsed.value().entries.size() == records.size());
        std::string parts = persist::segment_header(tier);
        for (std::size_t i = 0; i < records.size(); ++i) {
          const persist::SegmentEntry& e = parsed.value().entries[i];
          FUZZ_ASSERT(e.id == records[i].id);
          FUZZ_ASSERT(e.name == records[i].name);
          FUZZ_ASSERT(e.stored_at == records[i].stored_at);
          const auto payload = persist::segment_capture_bytes(image, e);
          FUZZ_ASSERT(payload.ok());
          FUZZ_ASSERT(payload.value() == records[i].capture);
          parts += records[i].capture;
        }
        const std::uint64_t index_offset = parts.size();
        const std::string footer =
            persist::segment_footer(parsed.value().entries, index_offset);
        FUZZ_ASSERT(parts + footer == image);
        const auto entries = persist::parse_segment_footer(footer, index_offset);
        FUZZ_ASSERT(entries.ok());
        FUZZ_ASSERT(entries.value().size() == records.size());
      }
      // One flipped byte: the parse must fail or the per-entry CRCs must
      // still police every payload slice — never silently wrong bytes.
      if (!image.empty()) {
        const std::size_t pos = in.u64() % image.size();
        image[pos] ^= static_cast<char>(in.u8() | 1);
        const auto tampered = persist::parse_segment_index(image);
        if (tampered.ok()) {
          for (const persist::SegmentEntry& e : tampered.value().entries) {
            const auto payload = persist::segment_capture_bytes(image, e);
            if (payload.ok()) {
              FUZZ_ASSERT(persist::crc32c(payload.value()) == e.crc);
            }
          }
        }
      }
      break;
    }
    case 1: {
      if (in.u8() & 1) {
        const std::string bytes{in.rest()};
        const auto parsed = persist::parse_manifest(bytes);
        if (parsed.ok()) {
          FUZZ_ASSERT(persist::encode_manifest(parsed.value()) == bytes);
        }
        break;
      }
      persist::Manifest manifest;
      manifest.version = in.u32();
      manifest.next_seq = in.u32();
      const std::size_t count = in.u8() % 16;
      for (std::size_t i = 0; i < count; ++i) {
        manifest.segments.push_back(
            {in.bytes(in.u8() % 20),
             (in.u8() & 1) ? persist::kTierSummary : persist::kTierRaw});
      }
      std::string image = persist::encode_manifest(manifest);
      const auto parsed = persist::parse_manifest(image);
      FUZZ_ASSERT(parsed.ok());
      FUZZ_ASSERT(parsed.value() == manifest);
      if (!image.empty()) {
        image[in.u64() % image.size()] ^= static_cast<char>(in.u8() | 1);
        const auto tampered = persist::parse_manifest(image);
        // The trailing CRC makes single-byte corruption detectable; if the
        // flip landed such that parsing still succeeds, the result must
        // still be canonical.
        if (tampered.ok()) {
          FUZZ_ASSERT(persist::encode_manifest(tampered.value()) == image);
        }
      }
      break;
    }
  }
  return 0;
}
