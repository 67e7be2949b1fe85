#include "store/codec.hpp"

#include <bit>
#include <cstring>

namespace blab::store {

void put_varint(std::string& out, std::uint64_t v) {
  char buf[10];
  out.append(buf, put_varint(buf, v));
}

const char* get_varint(const char* p, const char* end, std::uint64_t& v) {
  v = 0;
  int shift = 0;
  while (p < end && shift < 64) {
    const auto byte = static_cast<std::uint8_t>(*p++);
    // Tenth byte: only the low bit may be set, anything above bit 63 would
    // silently wrap. Rejecting here also rejects >10-byte encodings.
    if (shift == 63 && byte > 0x01) return nullptr;
    // Canonical LEB128 only: a trailing 0x00 continuation byte ("\x80\x00"
    // for 0) is an overlong encoding of a value put_varint would have
    // emitted shorter. One codeword per value keeps decode->re-encode
    // byte-identical, which the fuzz harness asserts.
    if (byte == 0x00 && shift > 0) return nullptr;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return p;
    shift += 7;
  }
  return nullptr;
}

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  out.append(buf, put_u32(buf, v));
}

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  out.append(buf, put_u64(buf, v));
}

void put_f32(std::string& out, float v) {
  put_u32(out, std::bit_cast<std::uint32_t>(v));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

const char* get_u32(const char* p, const char* end, std::uint32_t& v) {
  if (end - p < 4) return nullptr;
  v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  }
  return p + 4;
}

const char* get_u64(const char* p, const char* end, std::uint64_t& v) {
  if (end - p < 8) return nullptr;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  }
  return p + 8;
}

const char* get_f32(const char* p, const char* end, float& v) {
  std::uint32_t bits = 0;
  p = get_u32(p, end, bits);
  if (p != nullptr) v = std::bit_cast<float>(bits);
  return p;
}

const char* get_f64(const char* p, const char* end, double& v) {
  std::uint64_t bits = 0;
  p = get_u64(p, end, bits);
  if (p != nullptr) v = std::bit_cast<double>(bits);
  return p;
}

char* encode_samples(const float* samples, std::size_t n, char* out) {
  if (n == 0) return out;
  std::int64_t prev = std::bit_cast<std::uint32_t>(samples[0]);
  out = put_varint(out, static_cast<std::uint64_t>(prev));
  for (std::size_t i = 1; i < n; ++i) {
    const std::int64_t bits = std::bit_cast<std::uint32_t>(samples[i]);
    out = put_varint(out, zigzag_encode(bits - prev));
    prev = bits;
  }
  return out;
}

std::string encode_samples(const float* samples, std::size_t n) {
  std::string out(n * kMaxSampleBytes, '\0');
  out.resize(static_cast<std::size_t>(
      encode_samples(samples, n, out.data()) - out.data()));
  return out;
}

namespace {

/// Little-endian 8-byte load.
std::uint64_t load_le64(const char* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (int i = 0; i < 8; ++i) {
      v |= std::uint64_t{static_cast<std::uint8_t>(p[i])} << (8 * i);
    }
  }
  return v;
}

/// Bitmaps of the 64 bytes at `p`: bit k of `stops` is set iff p[k] ends a
/// varint (its bit 7 is clear), bit k of `zeros` iff p[k] is 0x00. Each
/// word's per-byte flags sit in bit 7 of each byte and are gathered
/// SWAR-style: the multiply lands bit 7 of byte j at bit 56 + j.
void window_bitmaps(const char* p, std::uint64_t& stops,
                    std::uint64_t& zeros) {
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  const auto gather = [](std::uint64_t flags) {
    return (flags >> 7) * 0x0102040810204080ULL >> 56;
  };
  stops = 0;
  zeros = 0;
  for (int w = 0; w < 8; ++w) {
    const std::uint64_t x = load_le64(p + 8 * w);
    stops |= gather(~x & kHigh) << (8 * w);
    // (b & 0x7F) + 0x7F carries into bit 7 iff the low bits are nonzero.
    zeros |= gather(~(((x & kLow7) + kLow7) | x) & kHigh) << (8 * w);
  }
}

/// kVarintBytes[len] masks the low `len` bytes of a word: one varint.
constexpr std::uint64_t kVarintBytes[kMaxSampleBytes + 1] = {
    0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF, 0xFFFFFFFFFF};

/// The value of a varint of at most kMaxSampleBytes bytes, held in the low
/// bytes of `word` with every byte above it zero.
std::uint64_t varint_payload(std::uint64_t word) {
  return (word & 0x7F) | ((word >> 1) & (0x7FULL << 7)) |
         ((word >> 2) & (0x7FULL << 14)) | ((word >> 3) & (0x7FULL << 21)) |
         ((word >> 4) & (0x7FULL << 28));
}

bool decode_into(const char* p, const char* end, std::size_t n, float* dst) {
  // The first sample is a raw bit pattern, the rest zigzag deltas. Any
  // varint longer than kMaxSampleBytes is refused before its value is
  // added: a canonical one is >= 2^35 and could not stay in range anyway,
  // and a 10-byte one would overflow the add.
  std::uint64_t first = 0;
  const char* next = get_varint(p, end, first);
  if (next == nullptr || first > 0xFFFFFFFFULL) return false;
  p = next;
  std::int64_t prev = static_cast<std::int64_t>(first);
  *dst++ = std::bit_cast<float>(static_cast<std::uint32_t>(prev));
  std::size_t left = n - 1;
  // Bulk: one 64-byte window at a time, starting at a varint boundary. The
  // stop bitmap gives each varint's length as the gap between two stop
  // bits. A window is only read while 8 bytes past it remain, so the 8-byte
  // load at any varint start in it stays in bounds. Every byte of the
  // window lies in the stream, and a valid stream holds no run of 5
  // continuation bytes (a varint longer than kMaxSampleBytes, or none
  // ending in this window) and no zero byte after a continuation byte (a
  // non-canonical last byte), so finding either anywhere in the window
  // rejects the stream, and the loop below needs no per-sample check. The
  // 32-bit range is checked once per window: 64 deltas below 2^35 each
  // cannot overflow `prev`, and out-of-range samples written meanwhile are
  // dropped with the rest of `out` on failure.
  while (left > 0 && end - p >= 72) {
    std::uint64_t stops = 0;
    std::uint64_t zeros = 0;
    window_bitmaps(p, stops, zeros);
    const std::uint64_t cont = ~stops;
    if ((cont & (cont >> 1) & (cont >> 2) & (cont >> 3) & (cont >> 4)) |
        (zeros & (cont << 1))) {
      return false;
    }
    unsigned start = 0;
    std::uint64_t seen = 0;
    do {
      const unsigned stop = static_cast<unsigned>(std::countr_zero(stops));
      const std::uint64_t word =
          load_le64(p + start) & kVarintBytes[stop + 1 - start];
      prev += zigzag_decode(varint_payload(word));
      seen |= static_cast<std::uint64_t>(prev);
      *dst++ = std::bit_cast<float>(static_cast<std::uint32_t>(prev));
      start = stop + 1;
      stops &= stops - 1;
      --left;
    } while (left > 0 && stops != 0);
    if (seen > 0xFFFFFFFFULL) return false;
    p += start;
  }
  // Tail: the last bytes go one varint at a time.
  for (; left > 0; --left) {
    std::uint64_t delta = 0;
    next = get_varint(p, end, delta);
    if (next == nullptr ||
        static_cast<std::size_t>(next - p) > kMaxSampleBytes) {
      return false;
    }
    p = next;
    prev += zigzag_decode(delta);
    if (static_cast<std::uint64_t>(prev) > 0xFFFFFFFFULL) return false;
    *dst++ = std::bit_cast<float>(static_cast<std::uint32_t>(prev));
  }
  return p == end;
}

}  // namespace

bool decode_samples(std::string_view bytes, std::size_t n,
                    std::vector<float>& out) {
  if (n == 0) return bytes.empty();
  // Every sample takes at least one payload byte, so a count beyond the
  // payload size is malformed. Checking before the resize keeps a hostile
  // 32-bit count from forcing a multi-GB allocation up front.
  if (n > bytes.size()) return false;
  const std::size_t old_size = out.size();
  out.resize(old_size + n);
  if (!decode_into(bytes.data(), bytes.data() + bytes.size(), n,
                   out.data() + old_size)) {
    out.resize(old_size);
    return false;
  }
  return true;
}

}  // namespace blab::store
