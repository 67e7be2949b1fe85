// Byte-level primitives for the chunked capture format.
//
// Current samples are IEEE-754 floats; consecutive samples differ mostly in
// low mantissa bits (signal plus calibration noise), so the 32-bit patterns
// of neighbours are numerically close. Encoding the delta of the bit
// patterns with zigzag + LEB128 varints is lossless and shrinks a typical
// 5 kHz browser capture to 2-3 bytes per sample.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace blab::store {

/// LEB128 varint write at `p`, which must have room for 10 bytes; returns
/// one past the last byte written. This is the codec's one varint writer:
/// the string append below, encode_samples and ChunkedCapture::encode all
/// go through it.
inline char* put_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

/// LEB128 varint append / bounded read. `get_varint` returns the position
/// after the value, or nullptr on truncated, overlong (non-canonical
/// trailing zero byte, >10 bytes) or overflowing (bits above 63) input.
/// Accepting exactly the encodings put_varint emits makes decode followed
/// by re-encode byte-identical — the codec fuzz harness relies on that.
void put_varint(std::string& out, std::uint64_t v);
const char* get_varint(const char* p, const char* end, std::uint64_t& v);

constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Fixed-width little-endian scalar write at `p`; returns one past it.
inline char* put_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(v >> (8 * i));
  return p + 4;
}
inline char* put_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(v >> (8 * i));
  return p + 8;
}
inline char* put_f32(char* p, float v) {
  return put_u32(p, std::bit_cast<std::uint32_t>(v));
}
inline char* put_f64(char* p, double v) {
  return put_u64(p, std::bit_cast<std::uint64_t>(v));
}

/// Fixed-width little-endian scalar append / bounded read (nullptr on short
/// input), used for header fields where varints buy nothing.
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f32(std::string& out, float v);
void put_f64(std::string& out, double v);
const char* get_u32(const char* p, const char* end, std::uint32_t& v);
const char* get_u64(const char* p, const char* end, std::uint64_t& v);
const char* get_f32(const char* p, const char* end, float& v);
const char* get_f64(const char* p, const char* end, double& v);

/// Most bytes one encoded sample takes: a 32-bit pattern, or the zigzag of
/// a delta between two of them (at most 34 bits), is at most 5 varint bytes.
inline constexpr std::size_t kMaxSampleBytes = 5;

/// Encode `n` float samples: first bit pattern as a varint, then
/// delta(bit pattern) + zigzag + varint for the rest. Deterministic: the
/// same samples always produce the same bytes. The pointer form writes at
/// `out`, which must have room for `n * kMaxSampleBytes` bytes, and returns
/// one past the last byte written.
char* encode_samples(const float* samples, std::size_t n, char* out);
std::string encode_samples(const float* samples, std::size_t n);

/// Decode exactly `n` samples appended to `out`; false on malformed input
/// (truncated or trailing bytes, non-canonical varints or ones longer than
/// kMaxSampleBytes, deltas leaving the 32-bit range, or a count larger than
/// the payload could possibly hold — rejected before any allocation), and
/// then `out` is left as it was. It accepts exactly what encode_samples
/// emits, so decode followed by re-encode is byte-identical.
bool decode_samples(std::string_view bytes, std::size_t n,
                    std::vector<float>& out);

}  // namespace blab::store
