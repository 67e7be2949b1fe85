#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "store/chunked_capture.hpp"
#include "store/chunked_capture_internal.hpp"
#include "store/codec.hpp"

namespace blab::store::detail {
namespace {

void append_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::string encode_chunk(const float* samples, std::size_t n) {
  std::string out;
  if (n == 0) return out;
  std::int64_t prev = std::bit_cast<std::uint32_t>(samples[0]);
  append_varint(out, static_cast<std::uint64_t>(prev));
  for (std::size_t i = 1; i < n; ++i) {
    const std::int64_t bits = std::bit_cast<std::uint32_t>(samples[i]);
    append_varint(out, zigzag_encode(bits - prev));
    prev = bits;
  }
  return out;
}

struct Chunk {
  ChunkFooter footer;
  std::string bytes;
};

Tier build_tier(const std::vector<float>& samples, std::size_t factor,
                double raw_hz) {
  Tier tier;
  tier.factor = factor;
  tier.rate_hz = raw_hz / static_cast<double>(factor);
  const std::size_t buckets = (samples.size() + factor - 1) / factor;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t begin = b * factor;
    const std::size_t end = std::min(begin + factor, samples.size());
    float lo = samples[begin];
    float hi = samples[begin];
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      lo = std::min(lo, samples[i]);
      hi = std::max(hi, samples[i]);
      sum += static_cast<double>(samples[i]);
    }
    tier.mean_ma.push_back(
        static_cast<float>(sum / static_cast<double>(end - begin)));
    tier.min_ma.push_back(lo);
    tier.max_ma.push_back(hi);
  }
  return tier;
}

}  // namespace

std::string encode_reference(const hw::Capture& capture,
                             std::size_t chunk_samples, bool drop_raw) {
  chunk_samples = std::max<std::size_t>(chunk_samples, 1);
  const auto& samples = capture.samples_ma();
  const double hz = capture.sample_hz();

  // Pass 1 and 2: chunk footers, then each chunk's varints.
  std::vector<Chunk> chunks;
  for (std::size_t begin = 0; begin < samples.size();
       begin += chunk_samples) {
    const std::size_t end = std::min(begin + chunk_samples, samples.size());
    Chunk chunk;
    chunk.footer.count = static_cast<std::uint32_t>(end - begin);
    float lo = samples[begin];
    float hi = samples[begin];
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      lo = std::min(lo, samples[i]);
      hi = std::max(hi, samples[i]);
      sum += static_cast<double>(samples[i]);
    }
    chunk.footer.min_ma = lo;
    chunk.footer.max_ma = hi;
    chunk.footer.sum_ma = sum;
    if (!drop_raw) {
      chunk.bytes = encode_chunk(samples.data() + begin, end - begin);
    }
    chunks.push_back(std::move(chunk));
  }

  // Passes 3 and 4: one per tier.
  std::vector<Tier> tiers;
  if (!samples.empty()) {
    for (double rate : ChunkedCapture::kTierRatesHz) {
      if (rate >= hz) continue;
      const auto factor = static_cast<std::size_t>(std::llround(hz / rate));
      if (factor < 2) continue;
      if (!tiers.empty() && tiers.back().factor == factor) continue;
      tiers.push_back(build_tier(samples, factor, hz));
    }
  }

  std::string out{"BLC1"};
  put_u64(out, static_cast<std::uint64_t>(capture.start().us()));
  put_f64(out, hz);
  put_f64(out, capture.voltage());
  put_u64(out, samples.size());
  put_u64(out, chunk_samples);
  out.push_back(drop_raw ? 0 : 1);
  put_u64(out, chunks.size());
  for (const Chunk& chunk : chunks) {
    put_u32(out, chunk.footer.count);
    put_f32(out, chunk.footer.min_ma);
    put_f32(out, chunk.footer.max_ma);
    put_f64(out, chunk.footer.sum_ma);
    put_u64(out, chunk.bytes.size());
    out.append(chunk.bytes);
  }
  put_u64(out, tiers.size());
  for (const Tier& tier : tiers) {
    put_u64(out, tier.factor);
    put_f64(out, tier.rate_hz);
    put_u64(out, tier.buckets());
    for (float v : tier.mean_ma) put_f32(out, v);
    for (float v : tier.min_ma) put_f32(out, v);
    for (float v : tier.max_ma) put_f32(out, v);
  }
  return out;
}

}  // namespace blab::store::detail
