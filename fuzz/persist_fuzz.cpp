// Fuzz target: the persistent capture store's checksum and its one wire
// format, the versioned manifest (a segment file is a bare capture image,
// which store_codec_fuzz covers).
//
// Modes (first input byte):
//   0: arbitrary bytes through crc32c(): the implementation selected for
//      this CPU must equal the table reference, whole and chained across a
//      split;
//   1: arbitrary bytes through parse_manifest; accepted manifests must
//      re-encode byte-identically (canonical format). Also a structured
//      round-trip over every entry field with a corruption pass.
#include <algorithm>
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
      // The split point comes from the reference CRC, so no input byte is
      // spent on it and the corpus keeps its meaning.
      const std::string bytes{in.rest()};
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
        persist::ManifestEntry entry;
        entry.id.workspace = "ws-" + std::to_string(in.u8() % 4);
        entry.id.seq = in.u16();
        entry.name = in.bytes(in.u8() % 16);
        entry.stored_at =
            TimePoint::from_micros(static_cast<std::int64_t>(in.u64()));
        entry.file = in.bytes(in.u8() % 20);
        entry.tier = (in.u8() & 1) ? persist::kTierSummary : persist::kTierRaw;
        entry.length = in.u64();
        entry.crc = in.u32();
        manifest.entries.push_back(std::move(entry));
      }
      // A manifest lists each id once, ascending.
      std::ranges::stable_sort(manifest.entries, {},
                               &persist::ManifestEntry::id);
      const auto repeated = std::ranges::unique(manifest.entries, {},
                                                &persist::ManifestEntry::id);
      manifest.entries.erase(repeated.begin(), repeated.end());
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
