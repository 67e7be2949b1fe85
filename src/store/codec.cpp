#include "store/codec.hpp"

#include <bit>

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

bool decode_samples(std::string_view bytes, std::size_t n,
                    std::vector<float>& out) {
  const char* p = bytes.data();
  const char* end = bytes.data() + bytes.size();
  if (n == 0) return p == end;
  // Every sample takes at least one payload byte, so a count beyond the
  // payload size is malformed. Checking before the reserve keeps a hostile
  // 32-bit count from forcing a multi-GB allocation up front.
  if (n > bytes.size()) return false;
  out.reserve(out.size() + n);
  std::uint64_t first = 0;
  p = get_varint(p, end, first);
  if (p == nullptr || first > 0xFFFFFFFFULL) return false;
  std::int64_t prev = static_cast<std::int64_t>(first);
  out.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(prev)));
  for (std::size_t i = 1; i < n; ++i) {
    std::uint64_t encoded = 0;
    p = get_varint(p, end, encoded);
    if (p == nullptr) return false;
    prev += zigzag_decode(encoded);
    if (prev < 0 || prev > 0xFFFFFFFFLL) return false;
    out.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(prev)));
  }
  return p == end;
}

}  // namespace blab::store
