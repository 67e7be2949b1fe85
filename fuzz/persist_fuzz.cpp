// Fuzz target: the persistent capture store's wire formats — WAL note
// framing, segment index/trailer parsing, and the versioned manifest.
//
// Modes (first input byte):
//   0: arbitrary bytes through parse_wal; the replay must account for every
//      byte (clean + dropped == size) and re-encoding the recovered notes
//      must reproduce the committed prefix byte-identically. The same bytes
//      also check the crc32c() implementation selected for this CPU against
//      the table reference, whole and chained across a split;
//   1: structured WAL — build notes from the input, then truncate or
//      byte-flip the image; recovery must yield an exact prefix of the
//      originals, never a note that was not written;
//   2: arbitrary bytes through parse_segment_index; accepted images must
//      have a dense, in-bounds index, per-entry CRCs must police every
//      payload slice, and when all payloads checksum, rebuilding from the
//      parsed entries must be byte-identical. Also a structured
//      build/parse round-trip, in which the image must equal its header,
//      payloads and separately built footer back to back (the engine
//      writes segments that way);
//   3: arbitrary bytes through parse_manifest; accepted manifests must
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

persist::WalRecord make_record(blab::fuzz::FuzzInput& in) {
  persist::WalRecord record;
  record.op = (in.u8() & 1) ? persist::WalOp::kErase : persist::WalOp::kDropRaw;
  record.id.workspace = "ws-" + std::to_string(in.u8() % 8);
  record.id.seq = in.u16();
  return record;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  blab::fuzz::FuzzInput in{data, size};
  switch (in.u8() % 4) {
    case 0: {
      const std::string bytes{in.rest()};
      const persist::WalReplay replay = persist::parse_wal(bytes);
      FUZZ_ASSERT(replay.clean_bytes + replay.dropped_bytes == bytes.size());
      FUZZ_ASSERT(replay.clean_bytes <= bytes.size());
      // Canonical framing: what parsed back is exactly what the committed
      // prefix encodes.
      std::string reencoded;
      for (const persist::WalRecord& r : replay.records) {
        persist::append_wal_record(reencoded, r);
      }
      FUZZ_ASSERT(reencoded == bytes.substr(0, replay.clean_bytes));
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
      break;
    }
    case 1: {
      const std::size_t count = 1 + in.u8() % 6;
      std::vector<persist::WalRecord> originals;
      std::string image;
      for (std::size_t i = 0; i < count; ++i) {
        originals.push_back(make_record(in));
        persist::append_wal_record(image, originals.back());
      }
      {
        const persist::WalReplay replay = persist::parse_wal(image);
        FUZZ_ASSERT(replay.records.size() == originals.size());
        FUZZ_ASSERT(replay.dropped_bytes == 0);
        for (std::size_t i = 0; i < originals.size(); ++i) {
          FUZZ_ASSERT(replay.records[i] == originals[i]);
        }
      }
      // Torn write: cut or flip anywhere. Recovery keeps an exact prefix.
      std::string tampered = image;
      if (in.u8() & 1) {
        tampered.resize(in.u64() % (tampered.size() + 1));
      } else if (!tampered.empty()) {
        tampered[in.u64() % tampered.size()] ^=
            static_cast<char>(in.u8() | 1);
      }
      const persist::WalReplay replay = persist::parse_wal(tampered);
      FUZZ_ASSERT(replay.records.size() <= originals.size());
      for (std::size_t i = 0; i < replay.records.size(); ++i) {
        FUZZ_ASSERT(replay.records[i] == originals[i]);
      }
      break;
    }
    case 2: {
      if (in.u8() & 1) {
        const std::string bytes{in.rest()};
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
    case 3: {
      if (in.u8() & 1) {
        const std::string bytes{in.rest()};
        const auto parsed = persist::parse_manifest(bytes);
        if (parsed.ok()) {
          FUZZ_ASSERT(persist::encode_manifest(parsed.value()) == bytes);
          FUZZ_ASSERT(parsed.value().shards.size() <=
                      persist::kMaxManifestShards);
        }
        break;
      }
      persist::Manifest manifest;
      manifest.version = in.u32();
      manifest.next_seq = in.u32();
      const std::size_t shards = in.u8() % 8;
      for (std::size_t s = 0; s < shards; ++s) {
        std::vector<persist::ManifestSegment> segs;
        const std::size_t count = in.u8() % 4;
        for (std::size_t i = 0; i < count; ++i) {
          segs.push_back({in.bytes(in.u8() % 20),
                          (in.u8() & 1) ? persist::kTierSummary
                                        : persist::kTierRaw});
        }
        manifest.shards.push_back(std::move(segs));
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
