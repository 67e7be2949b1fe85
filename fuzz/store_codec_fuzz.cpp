// Fuzz target: the store codec — LEB128 varint/zigzag/delta sample coding
// and the chunked-capture container with its footer parsing.
//
// Modes (first input byte):
//   0: arbitrary bytes through decode_samples; accepted payloads must
//      re-encode byte-identically (canonical varints make this total);
//   1: structured sample round-trip — arbitrary bit patterns encode, decode
//      bit-exactly, and decoding with the wrong count must fail;
//   2: arbitrary bytes through ChunkedCapture::deserialize; accepted
//      captures must re-serialize byte-identically, answer every footer
//      query without crashing, and rebuild a summary image (drop_raw, and
//      summary_image straight from the bytes, which must agree) that parses
//      back with the same footers and tiers;
//   3: encode a valid capture — its image, raw and purged, must equal the
//      four-pass reference encoder's byte for byte — then corrupt one byte
//      and deserialize: must either reject or stay internally consistent,
//      never crash.
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "fuzz_input.hpp"
#include "store/chunked_capture.hpp"
#include "store/chunked_capture_internal.hpp"
#include "store/codec.hpp"
#include "util/time.hpp"

namespace {

void exercise_queries(const blab::store::ChunkedCapture& cc) {
  (void)cc.sum_ma();
  (void)cc.mean_ma();
  (void)cc.min_ma();
  (void)cc.max_ma();
  (void)cc.charge_mah();
  (void)cc.energy_mwh();
  (void)cc.byte_size();
  (void)cc.duration();
  (void)cc.coarsest_tier_with(1);
  for (std::size_t i = 0; i < cc.chunk_count(); ++i) {
    const auto& footer = cc.footer(i);
    FUZZ_ASSERT(std::isfinite(footer.sum_ma));
    (void)cc.decode_chunk(i);  // ok or typed error, never UB
  }
  (void)cc.decode();
}

/// Field-wise bit equality (NaN footers compare equal to themselves).
bool same_bits(const blab::store::ChunkFooter& a,
               const blab::store::ChunkFooter& b) {
  return a.count == b.count &&
         std::bit_cast<std::uint32_t>(a.min_ma) ==
             std::bit_cast<std::uint32_t>(b.min_ma) &&
         std::bit_cast<std::uint32_t>(a.max_ma) ==
             std::bit_cast<std::uint32_t>(b.max_ma) &&
         std::bit_cast<std::uint64_t>(a.sum_ma) ==
             std::bit_cast<std::uint64_t>(b.sum_ma);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  blab::fuzz::FuzzInput in{data, size};
  switch (in.u8() % 4) {
    case 0: {
      const std::size_t n = in.u16();
      const std::string bytes{in.rest()};
      std::vector<float> out;
      if (blab::store::decode_samples(bytes, n, out)) {
        FUZZ_ASSERT(out.size() == n);
        // Canonical varints: decode-ok implies re-encode is byte-identical.
        FUZZ_ASSERT(blab::store::encode_samples(out.data(), out.size()) ==
                    bytes);
      }
      break;
    }
    case 1: {
      const std::size_t n = in.u16() % 256;
      std::vector<float> samples;
      samples.reserve(n);
      for (std::size_t i = 0; i < n; ++i) samples.push_back(in.f32_bits());
      const std::string bytes =
          blab::store::encode_samples(samples.data(), samples.size());
      std::vector<float> decoded;
      FUZZ_ASSERT(blab::store::decode_samples(bytes, n, decoded));
      FUZZ_ASSERT(decoded.size() == n);
      // Bit-exact, including NaN payloads and negative zero. (Empty vectors
      // have no storage to compare — memcmp's pointers must be non-null.)
      FUZZ_ASSERT(n == 0 || std::memcmp(decoded.data(), samples.data(),
                                        n * sizeof(float)) == 0);
      // The count is part of the contract: any other count must fail.
      std::vector<float> wrong;
      FUZZ_ASSERT(!blab::store::decode_samples(bytes, n + 1, wrong));
      if (n > 0) {
        wrong.clear();
        FUZZ_ASSERT(!blab::store::decode_samples(bytes, n - 1, wrong));
      }
      break;
    }
    case 2: {
      const std::string bytes{in.rest()};
      const auto result = blab::store::ChunkedCapture::deserialize(bytes);
      if (result.ok()) {
        FUZZ_ASSERT(result.value().serialize() == bytes);
        exercise_queries(result.value());
        blab::store::ChunkedCapture summary = result.value();
        summary.drop_raw();
        const auto direct = blab::store::ChunkedCapture::summary_image(bytes);
        FUZZ_ASSERT(direct.ok());
        FUZZ_ASSERT(direct.value() == summary.serialize());
        const auto reparsed =
            blab::store::ChunkedCapture::deserialize(summary.serialize());
        FUZZ_ASSERT(reparsed.ok());
        const blab::store::ChunkedCapture& back = reparsed.value();
        FUZZ_ASSERT(!back.raw_available());
        FUZZ_ASSERT(back.sample_count() == result.value().sample_count());
        FUZZ_ASSERT(back.chunk_count() == result.value().chunk_count());
        for (std::size_t i = 0; i < back.chunk_count(); ++i) {
          FUZZ_ASSERT(same_bits(back.footer(i), result.value().footer(i)));
        }
        FUZZ_ASSERT(back.tiers().size() == result.value().tiers().size());
      }
      break;
    }
    case 3: {
      const std::size_t flip_pos = in.u16();
      const std::uint8_t flip_mask = in.u8() | 1;  // always change something
      const bool purge = in.u8() & 1;
      const std::size_t chunk_samples = 1 + in.u8() % 64;
      const std::size_t n = in.u16() % 512;
      std::vector<float> samples;
      samples.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        samples.push_back(static_cast<float>(in.u16()) / 7.0f);
      }
      const blab::hw::Capture capture{blab::util::TimePoint::epoch(), 5000.0,
                                      3.7, std::move(samples)};
      auto cc = blab::store::ChunkedCapture::encode(capture, chunk_samples);
      // The single-pass encoder against the four-pass reference.
      FUZZ_ASSERT(cc.serialize() == blab::store::detail::encode_reference(
                                        capture, chunk_samples));
      if (purge) {
        cc.drop_raw();
        FUZZ_ASSERT(cc.serialize() == blab::store::detail::encode_reference(
                                          capture, chunk_samples, true));
      }
      std::string bytes{cc.serialize()};
      {
        // Sanity: the untampered image must round-trip.
        const auto clean = blab::store::ChunkedCapture::deserialize(bytes);
        FUZZ_ASSERT(clean.ok());
        FUZZ_ASSERT(clean.value().serialize() == bytes);
      }
      if (!bytes.empty()) {
        bytes[flip_pos % bytes.size()] ^= static_cast<char>(flip_mask);
        const auto tampered = blab::store::ChunkedCapture::deserialize(bytes);
        if (tampered.ok()) {
          // Corruption that still parses must stay internally consistent.
          FUZZ_ASSERT(tampered.value().serialize() == bytes);
          exercise_queries(tampered.value());
        }
      }
      break;
    }
  }
  return 0;
}
