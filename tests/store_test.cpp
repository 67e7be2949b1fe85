// Chunked capture store: codec losslessness, tier ladder edges, the layout
// rule deserialize enforces, retention TTLs, and the query API's footer/tier
// fast paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trace_io.hpp"
#include "hw/power_monitor.hpp"
#include "store/capture_store.hpp"
#include "store/chunked_capture.hpp"
#include "store/chunked_capture_internal.hpp"
#include "store/codec.hpp"
#include "util/rng.hpp"

namespace {

using blab::hw::Capture;
using blab::store::CaptureId;
using blab::store::CaptureStore;
using blab::store::ChunkedCapture;
using blab::store::RetentionPolicy;
using blab::store::detail::encode_reference;
using blab::util::Duration;
using blab::util::ErrorCode;
using blab::util::TimePoint;

/// A bounded random walk around `base` mA — realistic capture content where
/// consecutive samples are close, like a real Monsoon trace.
std::vector<float> walk_samples(std::uint64_t seed, std::size_t n,
                                double base = 300.0) {
  blab::util::Rng rng{seed};
  std::vector<float> samples;
  samples.reserve(n);
  double v = base;
  for (std::size_t i = 0; i < n; ++i) {
    v = std::clamp(v + rng.uniform(-8.0, 8.0), 5.0, 4500.0);
    samples.push_back(static_cast<float>(v));
  }
  return samples;
}

Capture make_capture(std::uint64_t seed, std::size_t n, double hz = 5000.0,
                     double voltage = 3.85) {
  return Capture{TimePoint::epoch(), hz, voltage, walk_samples(seed, n)};
}

// ------------------------------------------------------------------------
// Chunk codec and footers.
// ------------------------------------------------------------------------

TEST(ChunkedCapture, RoundTripIsLossless) {
  for (std::size_t n : {1u, 2u, 4095u, 4096u, 4097u, 10000u}) {
    const Capture original = make_capture(n, n);
    const ChunkedCapture cc = ChunkedCapture::encode(original);
    auto decoded = cc.decode();
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    ASSERT_EQ(decoded.value().sample_count(), n);
    EXPECT_EQ(decoded.value().samples_ma(), original.samples_ma())
        << "n=" << n << " did not round-trip bit-exactly";
    EXPECT_EQ(decoded.value().start(), original.start());
    EXPECT_DOUBLE_EQ(decoded.value().sample_hz(), original.sample_hz());
    EXPECT_DOUBLE_EQ(decoded.value().voltage(), original.voltage());
  }
}

TEST(ChunkedCapture, EmptyCaptureIsRepresentable) {
  const Capture empty{TimePoint::epoch(), 5000.0, 3.85, {}};
  const ChunkedCapture cc = ChunkedCapture::encode(empty);
  EXPECT_EQ(cc.sample_count(), 0u);
  EXPECT_EQ(cc.chunk_count(), 0u);
  EXPECT_TRUE(cc.tiers().empty());
  EXPECT_DOUBLE_EQ(cc.mean_ma(), 0.0);
  EXPECT_DOUBLE_EQ(cc.energy_mwh(), 0.0);
  auto decoded = cc.decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().sample_count(), 0u);
  auto reloaded = ChunkedCapture::deserialize(cc.serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  EXPECT_EQ(reloaded.value().sample_count(), 0u);
}

TEST(ChunkedCapture, SingleSampleTailChunk) {
  const Capture original = make_capture(9, 9);
  const ChunkedCapture cc = ChunkedCapture::encode(original, 4);
  ASSERT_EQ(cc.chunk_count(), 3u);
  EXPECT_EQ(cc.footer(0).count, 4u);
  EXPECT_EQ(cc.footer(1).count, 4u);
  EXPECT_EQ(cc.footer(2).count, 1u);
  std::vector<float> tail;
  ASSERT_TRUE(cc.decode_chunks(2, 3, tail).ok());
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0], original.samples_ma()[8]);
  EXPECT_EQ(cc.footer(2).min_ma, original.samples_ma()[8]);
  EXPECT_EQ(cc.footer(2).max_ma, original.samples_ma()[8]);
}

TEST(ChunkedCapture, FooterSummariesMatchSequentialScan) {
  const Capture original = make_capture(77, 10000);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  double sum = 0.0;
  float lo = original.samples_ma()[0];
  float hi = lo;
  for (float v : original.samples_ma()) {
    sum += static_cast<double>(v);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double mean = sum / 10000.0;
  // Chunk partial sums re-associate the addition; last-ulp drift only.
  EXPECT_NEAR(cc.mean_ma(), mean, 1e-6 * std::abs(mean));
  EXPECT_EQ(cc.min_ma(), static_cast<double>(lo));
  EXPECT_EQ(cc.max_ma(), static_cast<double>(hi));
  EXPECT_NEAR(cc.energy_mwh(), original.energy_mwh(),
              1e-6 * std::abs(original.energy_mwh()));
}

// ------------------------------------------------------------------------
// Tier ladder.
// ------------------------------------------------------------------------

TEST(ChunkedCapture, TierLadderAtExactBoundaries) {
  // 10000 samples at 5 kHz: 50 Hz tier = factor 100 -> 100 buckets,
  // 1 Hz tier = factor 5000 -> 2 buckets, no partial tail anywhere.
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(1, 10000));
  ASSERT_EQ(cc.tiers().size(), 2u);
  EXPECT_EQ(cc.tiers()[0].factor, 100u);
  EXPECT_DOUBLE_EQ(cc.tiers()[0].rate_hz, 50.0);
  EXPECT_EQ(cc.tiers()[0].buckets(), 100u);
  EXPECT_EQ(cc.tiers()[1].factor, 5000u);
  EXPECT_DOUBLE_EQ(cc.tiers()[1].rate_hz, 1.0);
  EXPECT_EQ(cc.tiers()[1].buckets(), 2u);
}

TEST(ChunkedCapture, TierPartialTailBucket) {
  // One sample past the boundary adds a one-sample bucket to every tier.
  const Capture original = make_capture(2, 10001);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  ASSERT_EQ(cc.tiers().size(), 2u);
  EXPECT_EQ(cc.tiers()[0].buckets(), 101u);
  EXPECT_EQ(cc.tiers()[1].buckets(), 3u);
  const float last = original.samples_ma()[10000];
  EXPECT_EQ(cc.tiers()[0].mean_ma.back(), last);
  EXPECT_EQ(cc.tiers()[0].min_ma.back(), last);
  EXPECT_EQ(cc.tiers()[0].max_ma.back(), last);
}

TEST(ChunkedCapture, TiersAtOrAboveRawRateAreSkipped) {
  // At 50 Hz raw, the 50 Hz target is redundant; only 1 Hz survives.
  const ChunkedCapture at50 =
      ChunkedCapture::encode(make_capture(3, 500, /*hz=*/50.0));
  ASSERT_EQ(at50.tiers().size(), 1u);
  EXPECT_EQ(at50.tiers()[0].factor, 50u);
  EXPECT_DOUBLE_EQ(at50.tiers()[0].rate_hz, 1.0);
  // At 1 Hz raw there is nothing left to downsample.
  const ChunkedCapture at1 =
      ChunkedCapture::encode(make_capture(4, 10, /*hz=*/1.0));
  EXPECT_TRUE(at1.tiers().empty());
  EXPECT_EQ(at1.finest_tier(), nullptr);
}

TEST(ChunkedCapture, TierMeansAgreeWithRawWindows) {
  const Capture original = make_capture(5, 10000);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  const auto& tier = cc.tiers()[0];  // 50 Hz, factor 100
  for (std::size_t b : {0u, 37u, 99u}) {
    double sum = 0.0;
    for (std::size_t i = b * 100; i < (b + 1) * 100; ++i) {
      sum += static_cast<double>(original.samples_ma()[i]);
    }
    EXPECT_NEAR(tier.mean_ma[b], sum / 100.0, 1e-3) << "bucket " << b;
  }
}

// ------------------------------------------------------------------------
// Serialization.
// ------------------------------------------------------------------------

TEST(ChunkedCapture, ReencodeIsByteIdentical) {
  const Capture original = make_capture(6, 9001);
  const std::string first{ChunkedCapture::encode(original).serialize()};
  const std::string second{ChunkedCapture::encode(original).serialize()};
  EXPECT_EQ(first, second);
}

TEST(ChunkedCapture, SerializeDeserializeRoundTrip) {
  const Capture original = make_capture(7, 8193);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  auto reloaded = ChunkedCapture::deserialize(cc.serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  const ChunkedCapture& rc = reloaded.value();
  EXPECT_EQ(rc.sample_count(), cc.sample_count());
  EXPECT_EQ(rc.chunk_count(), cc.chunk_count());
  EXPECT_EQ(rc.tiers().size(), cc.tiers().size());
  EXPECT_EQ(rc.serialize(), cc.serialize());
  auto decoded = rc.decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().samples_ma(), original.samples_ma());
}

TEST(ChunkedCapture, PurgedRawSurvivesSerialization) {
  ChunkedCapture cc = ChunkedCapture::encode(make_capture(8, 9000));
  const double mean = cc.mean_ma();
  cc.drop_raw();
  auto reloaded = ChunkedCapture::deserialize(cc.serialize());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_FALSE(reloaded.value().raw_available());
  EXPECT_DOUBLE_EQ(reloaded.value().mean_ma(), mean);
  EXPECT_EQ(reloaded.value().decode().error().code,
            ErrorCode::kFailedPrecondition);
}

TEST(ChunkedCapture, DeserializeRejectsMalformedBytes) {
  const std::string good{
      ChunkedCapture::encode(make_capture(9, 5000)).serialize()};
  EXPECT_FALSE(ChunkedCapture::deserialize("").ok());
  EXPECT_FALSE(ChunkedCapture::deserialize("XXXX" + good.substr(4)).ok());
  EXPECT_FALSE(
      ChunkedCapture::deserialize(good.substr(0, good.size() / 2)).ok());
  EXPECT_FALSE(ChunkedCapture::deserialize(good + std::string(1, '\0')).ok());
}

/// The tier section encode writes for `tiers`: the tier count, then each
/// tier's factor, rate, bucket count and mean, min and max columns.
std::string tier_section(const std::vector<blab::store::Tier>& tiers) {
  using namespace blab::store;
  std::string out;
  put_u64(out, tiers.size());
  for (const Tier& tier : tiers) {
    put_u64(out, tier.factor);
    put_f64(out, tier.rate_hz);
    put_u64(out, tier.buckets());
    for (const auto* column : {&tier.mean_ma, &tier.min_ma, &tier.max_ma}) {
      for (float v : *column) put_f32(out, v);
    }
  }
  return out;
}

/// A raw image of `capture` under header chunk_samples `chunk_samples`,
/// laid out the way encode lays one out, but with chunks of `splits`
/// samples each.
std::string image_with_chunks(const Capture& capture,
                              std::size_t chunk_samples,
                              const std::vector<std::uint32_t>& splits) {
  using namespace blab::store;
  const ChunkedCapture cc = ChunkedCapture::encode(capture, chunk_samples);
  // The header up to its chunk count: magic, t0, rate, voltage, sample
  // count, chunk_samples and the raw flag.
  std::string out{cc.serialize().substr(0, 4 + 5 * 8 + 1)};
  put_u64(out, splits.size());
  const float* s = capture.samples_ma().data();
  for (std::uint32_t count : splits) {
    const std::string payload = encode_samples(s, count);
    float lo = s[0];
    float hi = s[0];
    double sum = 0.0;
    for (std::uint32_t i = 0; i < count; ++i) {
      lo = std::min(lo, s[i]);
      hi = std::max(hi, s[i]);
      sum += static_cast<double>(s[i]);
    }
    put_u32(out, count);
    put_f32(out, lo);
    put_f32(out, hi);
    put_f64(out, sum);
    put_u64(out, payload.size());
    out += payload;
    s += count;
  }
  return out + tier_section(cc.tiers());
}

TEST(ChunkedCapture, DeserializeRejectsChunkLayoutsEncodeNeverEmits) {
  // 8 samples in chunks of 4 encode as [4, 4]; the helper reproduces that.
  const Capture capture = make_capture(15, 8);
  ASSERT_EQ(image_with_chunks(capture, 4, {4, 4}),
            ChunkedCapture::encode(capture, 4).serialize());
  // The same chunks under a header that says 8: sample 4 would be looked
  // for in chunk 0, so range() over samples 4-7 would come back empty.
  const auto raised = ChunkedCapture::deserialize(
      image_with_chunks(capture, 8, {4, 4}));
  ASSERT_FALSE(raised.ok());
  EXPECT_EQ(raised.error().code, ErrorCode::kInvalidArgument);
  // A short chunk before the last one.
  const auto short_chunk = ChunkedCapture::deserialize(
      image_with_chunks(capture, 4, {4, 3, 1}));
  ASSERT_FALSE(short_chunk.ok());
  EXPECT_EQ(short_chunk.error().code, ErrorCode::kInvalidArgument);
}

TEST(ChunkedCapture, DeserializeRejectsTiersOffTheLadder) {
  // 10000 samples at 5 kHz: tiers of factor 100 (100 buckets) and 5000 (2).
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(16, 10000));
  const std::string image{cc.serialize()};
  const std::string tiers = tier_section(cc.tiers());
  ASSERT_TRUE(image.ends_with(tiers));
  const std::string prefix = image.substr(0, image.size() - tiers.size());
  const auto rejected = [&](const std::vector<blab::store::Tier>& bad) {
    const auto parsed = ChunkedCapture::deserialize(prefix + tier_section(bad));
    return !parsed.ok() && parsed.error().code == ErrorCode::kInvalidArgument;
  };

  // One bucket more than ceil(n / factor).
  auto extra = cc.tiers();
  for (auto* column :
       {&extra[0].mean_ma, &extra[0].min_ma, &extra[0].max_ma}) {
    column->push_back(column->back());
  }
  EXPECT_TRUE(rejected(extra));
  // A factor the ladder never derives, with its own rate and bucket count.
  auto off = cc.tiers();
  off[0].factor = 99;
  off[0].rate_hz = 5000.0 / 99.0;
  for (auto* column : {&off[0].mean_ma, &off[0].min_ma, &off[0].max_ma}) {
    const float last = column->back();
    column->resize(102, last);  // ceil(10000 / 99)
  }
  EXPECT_TRUE(rejected(off));
  // A ladder missing its 1 Hz tier.
  auto missing = cc.tiers();
  missing.pop_back();
  EXPECT_TRUE(rejected(missing));
}

// ------------------------------------------------------------------------
// The single-pass encoder against the four-pass reference.
// ------------------------------------------------------------------------

/// Byte offset of the first difference, or the shorter length when one is a
/// prefix of the other; npos when equal. Keeps failures readable on
/// multi-kilobyte images.
std::size_t first_difference(std::string_view a, std::string_view b) {
  if (a == b) return std::string::npos;
  const auto mismatch = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  return static_cast<std::size_t>(mismatch.first - a.begin());
}

/// encode() must produce the reference image byte for byte, and drop_raw()
/// and summary_image() the reference summary image.
void expect_matches_reference(const Capture& capture,
                              std::size_t chunk_samples) {
  SCOPED_TRACE(::testing::Message()
               << capture.sample_count() << " samples at "
               << capture.sample_hz() << " Hz, chunk_samples "
               << chunk_samples);
  ChunkedCapture cc = ChunkedCapture::encode(capture, chunk_samples);
  const std::string raw = encode_reference(capture, chunk_samples);
  EXPECT_EQ(first_difference(cc.serialize(), raw), std::string::npos)
      << "image " << cc.serialize().size() << " B, reference " << raw.size()
      << " B";
  EXPECT_EQ(cc.byte_size(), raw.size());
  cc.drop_raw();
  const std::string summary =
      encode_reference(capture, chunk_samples, /*drop_raw=*/true);
  EXPECT_EQ(first_difference(cc.serialize(), summary), std::string::npos)
      << "summary " << cc.serialize().size() << " B, reference "
      << summary.size() << " B";
  // summary_image validates like deserialize, which rejects non-finite
  // footer sums (the special-value captures below).
  const auto demoted = ChunkedCapture::summary_image(raw);
  ASSERT_EQ(demoted.ok(), ChunkedCapture::deserialize(raw).ok());
  if (demoted.ok()) {
    EXPECT_EQ(first_difference(demoted.value(), summary), std::string::npos);
  }
}

TEST(EncoderDifferential, LengthsAroundChunkAndTierBoundaries) {
  // Empty, one sample, fewer samples than the 50 Hz tier's factor (100),
  // and lengths just off multiples of 100, 4096 and 5000 — every way a
  // chunk, a 50 Hz bucket and a 1 Hz bucket can end together or apart.
  std::vector<std::size_t> lengths{0, 1, 2, 37, 99};
  for (std::size_t unit : {100u, 4096u, 5000u}) {
    for (std::size_t k : {1u, 2u, 3u}) {
      for (std::size_t n : {k * unit - 1, k * unit, k * unit + 1}) {
        lengths.push_back(n);
      }
    }
  }
  lengths.push_back(20480);  // 5 chunks, 204.8 tier buckets
  for (std::size_t chunk_samples : {1u, 7u, 100u, 4096u, 5000u}) {
    for (std::size_t n : lengths) {
      expect_matches_reference(make_capture(n + 1, n), chunk_samples);
    }
  }
}

TEST(EncoderDifferential, TierLaddersAtOtherRates) {
  // 50 Hz keeps only the 1 Hz tier (factor 50); 100 Hz gets a factor-2
  // tier; 60 Hz one tier of 60; 1.5 Hz rounds to factor 2; 1 Hz has none.
  for (double hz : {50.0, 100.0, 60.0, 1.5, 1.0}) {
    for (std::size_t n : {0u, 1u, 2u, 3u, 49u, 50u, 51u, 99u, 100u, 101u,
                          1001u}) {
      for (std::size_t chunk_samples : {1u, 7u, 100u, 4096u}) {
        expect_matches_reference(make_capture(n, n, hz), chunk_samples);
      }
    }
  }
}

TEST(EncoderDifferential, SpecialValuesAtEveryBoundary) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denormal = std::numeric_limits<float>::denorm_min();
  const std::vector<float> finite{
      -1.5f, -0.0f, 0.0f, denormal, -denormal,
      std::numeric_limits<float>::min() / 4, std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest(), -300.25f};
  // One family per kind of non-finite sample. Within a family every chunk
  // and bucket sum meets at most one NaN bit pattern: a sum that meets two
  // different NaNs keeps whichever one the compiler's operand order puts
  // first, which is a property of the build, not of either encoder. (+inf
  // meeting -inf yields the CPU's default NaN, so the NaN families carry
  // no infinities.)
  std::vector<std::vector<float>> families;
  families.push_back(finite);
  for (float extra : {inf, -inf}) families.back().push_back(extra);
  for (float extra : {nan, -nan, std::bit_cast<float>(0x7F800001u)}) {
    families.push_back(finite);
    families.back().push_back(extra);
  }
  for (const std::vector<float>& specials : families) {
    // Specials dense everywhere, and specials only where chunks and buckets
    // start (where min/max are seeded) with the walk in between.
    std::vector<float> dense(10007);
    for (std::size_t i = 0; i < dense.size(); ++i) {
      dense[i] = specials[(i * 7919) % specials.size()];
    }
    std::vector<float> seeded = walk_samples(5, 10007);
    for (std::size_t i = 0; i < seeded.size(); ++i) {
      if (i % 100 == 0 || i % 4096 == 0 || i % 7 == 0) {
        seeded[i] = specials[(i / 7) % specials.size()];
      }
    }
    for (const auto* samples : {&dense, &seeded}) {
      const Capture capture{TimePoint::from_micros(-12345), 5000.0, -3.7,
                            *samples};
      for (std::size_t chunk_samples : {1u, 7u, 100u, 4096u, 5000u}) {
        expect_matches_reference(capture, chunk_samples);
      }
    }
  }
}

TEST(EncoderDifferential, MappedImagesCopyAndShrink) {
  // 400k samples: the worst-case buffer and the image both pass 1 MiB, so
  // the image lives in its own mapping; copies and drop_raw must keep the
  // bytes and leave the source untouched.
  const Capture capture = make_capture(14, 400000);
  expect_matches_reference(capture, ChunkedCapture::kDefaultChunkSamples);
  const ChunkedCapture original = ChunkedCapture::encode(capture);
  const std::string raw = encode_reference(
      capture, ChunkedCapture::kDefaultChunkSamples);
  ASSERT_GT(raw.size(), std::size_t{1} << 20);
  ChunkedCapture copy = original;
  EXPECT_EQ(first_difference(copy.serialize(), raw), std::string::npos);
  copy.drop_raw();
  EXPECT_EQ(first_difference(original.serialize(), raw), std::string::npos);
  EXPECT_EQ(first_difference(copy.serialize(),
                             encode_reference(
                                 capture, ChunkedCapture::kDefaultChunkSamples,
                                 /*drop_raw=*/true)),
            std::string::npos);
  copy = original;
  auto decoded = copy.decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().samples_ma(), capture.samples_ma());
}

TEST(EncoderDifferential, FiveByteVarints) {
  // Bit patterns 0 and 0xFFFFFFFF alternate: every delta is ±(2^32 - 1),
  // whose zigzag needs 34 bits, so every sample after a chunk's first takes
  // the codec's worst case of five bytes.
  std::vector<float> samples(9001);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = std::bit_cast<float>(i % 2 == 0 ? 0u : 0xFFFFFFFFu);
  }
  EXPECT_EQ(blab::store::encode_samples(samples.data(), samples.size()).size(),
            1 + (samples.size() - 1) * blab::store::kMaxSampleBytes);
  const Capture capture{TimePoint::epoch(), 5000.0, 3.85, samples};
  for (std::size_t chunk_samples : {1u, 7u, 100u, 4096u, 5000u}) {
    expect_matches_reference(capture, chunk_samples);
  }
}

// ----------------------------------------------- adversarial codec input ----

TEST(Codec, VarintRejectsTruncatedOverlongAndOverflowing) {
  using blab::store::get_varint;
  using blab::store::put_varint;
  std::uint64_t v = 0;

  // Truncated: continuation bit set on the last available byte.
  const std::string truncated{"\x80", 1};
  EXPECT_EQ(get_varint(truncated.data(),
                       truncated.data() + truncated.size(), v),
            nullptr);

  // Overlong: a non-canonical trailing zero byte ("\x80\x00" also encodes 0).
  const std::string overlong{"\x80\x00", 2};
  EXPECT_EQ(get_varint(overlong.data(), overlong.data() + overlong.size(), v),
            nullptr);

  // Overflowing: 10th byte carries bits above bit 63.
  std::string overflow(9, '\xFF');
  overflow.push_back('\x02');
  EXPECT_EQ(get_varint(overflow.data(), overflow.data() + overflow.size(), v),
            nullptr);

  // The canonical max encoding (2^64-1) still decodes.
  std::string max_enc;
  put_varint(max_enc, ~0ULL);
  EXPECT_NE(get_varint(max_enc.data(), max_enc.data() + max_enc.size(), v),
            nullptr);
  EXPECT_EQ(v, ~0ULL);

  // Every canonical encoding round-trips to the exact same bytes.
  for (const std::uint64_t val :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 1ULL << 32,
        ~0ULL >> 1, ~0ULL}) {
    std::string enc;
    put_varint(enc, val);
    std::uint64_t back = 0;
    const char* p = get_varint(enc.data(), enc.data() + enc.size(), back);
    ASSERT_EQ(p, enc.data() + enc.size());
    EXPECT_EQ(back, val);
  }
}

TEST(Codec, DecodeSamplesRejectsHostileCounts) {
  using blab::store::decode_samples;
  using blab::store::encode_samples;
  const std::vector<float> samples{1.0f, 1.5f, 2.0f, -3.25f};
  const std::string bytes = encode_samples(samples.data(), samples.size());

  std::vector<float> out;
  // A count larger than the payload could possibly hold is rejected before
  // any allocation (each sample is at least one varint byte).
  EXPECT_FALSE(decode_samples(bytes, 1u << 31, out));
  EXPECT_TRUE(out.empty());

  // Off-by-one counts fail: trailing bytes and truncation are both errors.
  EXPECT_FALSE(decode_samples(bytes, samples.size() - 1, out));
  EXPECT_FALSE(decode_samples(bytes, samples.size() + 1, out));

  // Non-canonical payload bytes fail even when the count fits.
  EXPECT_FALSE(decode_samples(std::string{"\x80\x00", 2}, 1, out));

  // And the honest decode still works and re-encodes byte-identically.
  out.clear();
  ASSERT_TRUE(decode_samples(bytes, samples.size(), out));
  EXPECT_EQ(out, samples);
  EXPECT_EQ(encode_samples(out.data(), out.size()), bytes);
}

TEST(Codec, DecodeSamplesRejectsADeltaThatWouldOverflow) {
  using blab::store::decode_samples;
  using blab::store::put_varint;
  // First sample 0x80000000, then the canonical 10-byte varint of
  // 0xFFFFFFFFFFFFFFFE, whose zigzag delta is INT64_MAX: adding it to the
  // first sample overflows int64 unless the varint's length is refused
  // first. (tests/fuzz_corpus/store_codec_fuzz/delta_overflow is this input.)
  std::string bytes;
  put_varint(bytes, 0x80000000ULL);
  put_varint(bytes, 0xFFFFFFFFFFFFFFFEULL);
  std::vector<float> out{7.0f};
  EXPECT_FALSE(decode_samples(bytes, 2, out));
  EXPECT_EQ(out, std::vector<float>{7.0f}) << "out is left as it was";

  // The same delta, and a canonical 6-byte one, deep in a stream where the
  // bulk loop reads them.
  const std::vector<float> samples = walk_samples(3, 200);
  for (const std::uint64_t bad : {0xFFFFFFFFFFFFFFFEULL, 1ULL << 35}) {
    std::string stream;
    put_varint(stream, std::bit_cast<std::uint32_t>(samples[0]));
    for (std::size_t i = 1; i < samples.size(); ++i) {
      if (i == 50) put_varint(stream, bad);
      const std::int64_t bits = std::bit_cast<std::uint32_t>(samples[i]);
      const std::int64_t prev = std::bit_cast<std::uint32_t>(samples[i - 1]);
      put_varint(stream, blab::store::zigzag_encode(bits - prev));
    }
    out.assign(3, 1.0f);
    EXPECT_FALSE(decode_samples(stream, samples.size() + 1, out));
    EXPECT_EQ(out, std::vector<float>(3, 1.0f));
  }
}

/// decode_samples' accept set before its bulk loop: one get_varint at a
/// time, any canonical length, every add range-checked so none overflows.
bool reference_decode(std::string_view bytes, std::size_t n,
                      std::vector<float>& out) {
  const char* p = bytes.data();
  const char* end = p + bytes.size();
  if (n == 0) return p == end;
  if (n > bytes.size()) return false;
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    p = blab::store::get_varint(p, end, v);
    if (p == nullptr) return false;
    const std::int64_t delta = blab::store::zigzag_decode(v);
    if (i == 0 ? v > 0xFFFFFFFFULL
               : delta > 0xFFFFFFFFLL || delta < -0xFFFFFFFFLL) {
      return false;
    }
    prev = i == 0 ? static_cast<std::int64_t>(v) : prev + delta;
    if (prev < 0 || prev > 0xFFFFFFFFLL) return false;
    out.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(prev)));
  }
  return p == end;
}

TEST(Codec, BulkDecodeAcceptsExactlyTheScalarSet) {
  // Encoded streams long enough for the 64-byte windows, mixing close
  // samples (1-3 byte deltas) with arbitrary bit patterns (up to 5), then
  // corrupted: a byte flipped, zeroed, set to a continuation byte,
  // inserted or deleted, or the count off by one.
  blab::util::Rng rng{2026};
  std::size_t accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    std::vector<float> samples = walk_samples(trial, n);
    for (float& f : samples) {
      if (rng.chance(0.1)) {
        f = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64()));
      }
    }
    std::string bytes = blab::store::encode_samples(samples.data(), n);
    std::size_t count = n;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    const auto byte = [&](int lo, int hi) {
      return static_cast<char>(rng.uniform_int(lo, hi));
    };
    switch (rng.uniform_int(0, 6)) {
      case 0: break;
      case 1: bytes[at] ^= byte(1, 255); break;
      case 2: bytes[at] = '\x00'; break;
      case 3: bytes[at] = byte(0x80, 0xFF); break;
      case 4: bytes.insert(at, 1, byte(0, 255)); break;
      case 5: bytes.erase(at, 1); break;
      case 6: count += rng.chance(0.5) ? 1 : -1; break;
    }
    std::vector<float> got{-1.0f};
    std::vector<float> want{-1.0f};
    const bool ok = blab::store::decode_samples(bytes, count, got);
    ASSERT_EQ(ok, reference_decode(bytes, count, want)) << "trial " << trial;
    if (!ok) {
      EXPECT_EQ(got, std::vector<float>{-1.0f}) << "trial " << trial;
      continue;
    }
    ++accepted;
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << "trial " << trial;
  }
  EXPECT_GT(accepted, 1000u);
}

TEST(ChunkedCapture, DeserializeRejectsNonCanonicalHeaderFields) {
  const auto cc = ChunkedCapture::encode(make_capture(11, 300));
  const std::string good{cc.serialize()};

  // Accepted bytes must re-serialize identically (the fuzz invariant).
  const auto back = ChunkedCapture::deserialize(good);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().serialize(), good);

  // Single-byte corruption anywhere must never crash; it either fails with
  // a typed error or yields a capture that still re-serializes losslessly.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    const auto r = ChunkedCapture::deserialize(bad);
    if (r.ok()) {
      EXPECT_EQ(r.value().serialize(), bad) << "byte " << i;
    }
  }
}

TEST(ChunkedCapture, CompressionBeatsCsvByFourX) {
  const Capture original = make_capture(10, 25000);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  std::ostringstream csv;
  blab::analysis::write_capture_csv(original, csv);
  EXPECT_LE(cc.byte_size() * 4, csv.str().size())
      << "chunked " << cc.byte_size() << " B vs CSV " << csv.str().size()
      << " B";
}

TEST(TraceIo, ChunkedAdaptersRoundTrip) {
  const Capture original = make_capture(11, 6000);
  std::ostringstream os;
  blab::analysis::write_capture_chunked(original, os);
  std::istringstream is{os.str()};
  auto reloaded = blab::analysis::read_capture_chunked_stream(is);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  EXPECT_EQ(reloaded.value().samples_ma(), original.samples_ma());
  EXPECT_DOUBLE_EQ(reloaded.value().sample_hz(), original.sample_hz());
  EXPECT_DOUBLE_EQ(reloaded.value().voltage(), original.voltage());
  EXPECT_EQ(reloaded.value().start(), original.start());
}

TEST(TraceIo, FileWritersReportFailedWrites) {
  // Every write to /dev/full fails with ENOSPC. A large capture fails while
  // it is written, a small one only when the close flushes the buffer.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full does not exist on this system";
  }
  for (std::size_t n : {200000u, 10u}) {
    SCOPED_TRACE(::testing::Message() << n << " samples");
    const Capture capture = make_capture(13, n);
    const auto csv = blab::analysis::write_capture_csv(capture, "/dev/full");
    ASSERT_FALSE(csv.ok());
    EXPECT_EQ(csv.error().code, ErrorCode::kUnavailable);
    const auto chunked =
        blab::analysis::write_capture_chunked(capture, "/dev/full");
    ASSERT_FALSE(chunked.ok());
    EXPECT_EQ(chunked.error().code, ErrorCode::kUnavailable);
  }
}

// ------------------------------------------------------------------------
// CaptureStore: lookup and queries.
// ------------------------------------------------------------------------

TEST(CaptureStore, WorkspacesAndListingsAreSorted) {
  CaptureStore store;
  const auto b1 = store.append("job-b", "m0", make_capture(20, 100),
                               TimePoint::epoch());
  const auto a1 = store.append("job-a", "m1", make_capture(21, 100),
                               TimePoint::epoch());
  const auto a2 = store.append("job-a", "m2", make_capture(22, 100),
                               TimePoint::epoch());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.workspaces(),
            (std::vector<std::string>{"job-a", "job-b"}));
  EXPECT_EQ(store.list("job-a"), (std::vector<CaptureId>{a1, a2}));
  EXPECT_EQ(store.list("job-b"), (std::vector<CaptureId>{b1}));
  EXPECT_LT(a1.seq, a2.seq);
  EXPECT_EQ(store.name_of(a2), "m2");
  EXPECT_FALSE(store.contains(CaptureId{"job-c", 99}));
  EXPECT_EQ(store.mean_ma(CaptureId{"job-c", 99}).error().code,
            ErrorCode::kNotFound);
}

TEST(CaptureStore, RangeReturnsExactSubrange) {
  CaptureStore store;
  const Capture original = make_capture(23, 10000);  // 2 s at 5 kHz
  const auto id =
      store.append("job", "m", original, TimePoint::epoch());
  auto slice = store.range(id, TimePoint::epoch() + Duration::seconds(0.25),
                           TimePoint::epoch() + Duration::seconds(0.5));
  ASSERT_TRUE(slice.ok()) << slice.error().message;
  ASSERT_EQ(slice.value().sample_count(), 1250u);
  for (std::size_t i = 0; i < 1250; ++i) {
    ASSERT_EQ(slice.value().samples_ma()[i], original.samples_ma()[1250 + i])
        << "sample " << i;
  }
  EXPECT_EQ(slice.value().start(),
            TimePoint::epoch() + Duration::seconds(0.25));
  // Out-of-bounds clamps; inverted range is an error.
  auto whole = store.range(id, TimePoint::epoch() - Duration::seconds(5),
                           TimePoint::epoch() + Duration::seconds(99));
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value().samples_ma(), original.samples_ma());
  EXPECT_EQ(store.range(id, TimePoint::epoch() + Duration::seconds(1),
                        TimePoint::epoch()).error().code,
            ErrorCode::kInvalidArgument);
}

TEST(CaptureStore, SummaryQueriesNeverDecodeRawChunks) {
  CaptureStore store;
  const Capture original = make_capture(24, 10000);
  const auto id = store.append("job", "m", original, TimePoint::epoch());

  auto whole = store.aggregate(id, Duration::seconds(60));
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole.value().size(), 1u);
  EXPECT_NEAR(whole.value()[0].mean_ma, original.mean_current_ma(),
              1e-6 * original.mean_current_ma());
  EXPECT_EQ(whole.value()[0].samples, 10000u);

  auto cdf = store.percentiles(id);
  ASSERT_TRUE(cdf.ok());
  EXPECT_EQ(cdf.value().count(), 100u);  // 50 Hz tier bucket means

  auto energy = store.energy_mwh(id);
  ASSERT_TRUE(energy.ok());
  EXPECT_NEAR(energy.value(), original.energy_mwh(),
              1e-6 * original.energy_mwh());

  // The acceptance bar: summaries come from footers/tiers alone.
  EXPECT_EQ(store.stats().raw_chunk_decodes, 0u);
  EXPECT_EQ(store.stats().tier_queries, 3u);  // aggregate + cdf + energy
  EXPECT_TRUE(store.mean_ma(id).ok());
  EXPECT_EQ(store.stats().tier_queries, 4u);
  EXPECT_EQ(store.stats().raw_chunk_decodes, 0u);
}

TEST(CaptureStore, CatalogFiltersByStoredAtAndSortsById) {
  CaptureStore store;
  const auto b = store.append("job-b", "m0", make_capture(40, 100),
                              TimePoint::epoch() + Duration::minutes(1));
  const auto a = store.append("job-a", "m1", make_capture(41, 100),
                              TimePoint::epoch() + Duration::minutes(5));
  const auto c = store.append("job-c", "m2", make_capture(42, 100),
                              TimePoint::epoch() + Duration::minutes(9));
  // Ascending CaptureId order regardless of insertion order — the rollup
  // engine's determinism contract leans on this.
  EXPECT_EQ(store.catalog(TimePoint::epoch(), TimePoint::max()),
            (std::vector<CaptureId>{a, b, c}));
  // [t0, t1) filters on stored_at.
  EXPECT_EQ(store.catalog(TimePoint::epoch(),
                          TimePoint::epoch() + Duration::minutes(5)),
            (std::vector<CaptureId>{b}));
  EXPECT_EQ(store.catalog(TimePoint::epoch() + Duration::minutes(5),
                          TimePoint::max()),
            (std::vector<CaptureId>{a, c}));
  EXPECT_TRUE(store.catalog(TimePoint::epoch() + Duration::minutes(30),
                            TimePoint::max())
                  .empty());
}

TEST(CaptureStore, SummaryServesFooterAggregatesWithoutRawDecodes) {
  CaptureStore store;
  const Capture original = make_capture(43, 10000);  // 2 s at 5 kHz
  const auto stored_at = TimePoint::epoch() + Duration::seconds(7);
  const auto id = store.append("job", "m", original, stored_at);
  const auto summary = store.summary(id);
  ASSERT_TRUE(summary.ok()) << summary.error().message;
  const auto& s = summary.value();
  EXPECT_EQ(s.id, id);
  EXPECT_EQ(s.name, "m");
  EXPECT_EQ(s.stored_at, stored_at);
  EXPECT_EQ(s.start, original.start());
  EXPECT_EQ(s.samples, 10000u);
  EXPECT_DOUBLE_EQ(s.sample_hz, original.sample_hz());
  EXPECT_DOUBLE_EQ(s.voltage, original.voltage());
  EXPECT_NEAR(s.mean_ma, original.mean_current_ma(),
              1e-6 * original.mean_current_ma());
  EXPECT_NEAR(s.energy_mwh, original.energy_mwh(),
              1e-6 * original.energy_mwh());
  EXPECT_GT(s.charge_mah, 0.0);
  EXPECT_LE(s.min_ma, s.max_ma);
  // The summary must agree exactly with the individual footer queries the
  // rollup-accuracy oracle chains to.
  EXPECT_EQ(s.energy_mwh, store.energy_mwh(id).value());
  EXPECT_EQ(s.mean_ma, store.mean_ma(id).value());
  EXPECT_EQ(store.stats().raw_chunk_decodes, 0u);
  EXPECT_EQ(store.summary(CaptureId{"ghost", 1}).error().code,
            ErrorCode::kNotFound);
}

TEST(CaptureStore, WindowedAggregateMatchesRawMeans) {
  CaptureStore store;
  const Capture original = make_capture(25, 10000);  // 2 s at 5 kHz
  const auto id = store.append("job", "m", original, TimePoint::epoch());
  auto buckets = store.aggregate(id, Duration::seconds(0.1));
  ASSERT_TRUE(buckets.ok()) << buckets.error().message;
  ASSERT_EQ(buckets.value().size(), 20u);  // 2 s / 100 ms
  for (std::size_t b : {0u, 7u, 19u}) {
    double sum = 0.0;
    for (std::size_t i = b * 500; i < (b + 1) * 500; ++i) {
      sum += static_cast<double>(original.samples_ma()[i]);
    }
    EXPECT_NEAR(buckets.value()[b].mean_ma, sum / 500.0, 1e-2)
        << "bucket " << b;
    EXPECT_EQ(buckets.value()[b].samples, 500u);
  }
  EXPECT_EQ(store.stats().raw_chunk_decodes, 0u);
}

TEST(CaptureStore, WindowFinerThanFinestTierIsUnsupported) {
  CaptureStore store;
  const auto id =
      store.append("job", "m", make_capture(26, 10000), TimePoint::epoch());
  // 1 ms windows need the raw 5 kHz stream, not the 50 Hz tier.
  auto result = store.aggregate(id, Duration::millis(1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnsupported);
  EXPECT_EQ(store.aggregate(id, Duration::zero()).error().code,
            ErrorCode::kInvalidArgument);
}

// ------------------------------------------------------------------------
// Retention.
// ------------------------------------------------------------------------

TEST(CaptureStore, TtlPurgesRawFirstThenSummaries) {
  RetentionPolicy policy;
  policy.raw_ttl = Duration::minutes(30);
  policy.summary_ttl = Duration::minutes(240);
  CaptureStore store{policy};
  const Capture original = make_capture(27, 10000);
  const auto id = store.append("job", "m", original, TimePoint::epoch());

  // Mid-life: a raw query works, then retention crosses the raw TTL and the
  // same query degrades to an explicit precondition failure while every
  // summary keeps answering.
  ASSERT_TRUE(store.range(id, TimePoint::epoch(),
                          TimePoint::epoch() + Duration::seconds(1)).ok());
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + Duration::minutes(29)),
            0u);
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + Duration::minutes(31)),
            1u);
  EXPECT_EQ(store.stats().raw_purges, 1u);
  auto range = store.range(id, TimePoint::epoch(),
                           TimePoint::epoch() + Duration::seconds(1));
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.error().code, ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(store.contains(id));
  EXPECT_TRUE(store.percentiles(id).ok());
  EXPECT_NEAR(store.mean_ma(id).value(), original.mean_current_ma(),
              1e-6 * original.mean_current_ma());
  ASSERT_TRUE(store.aggregate(id, Duration::seconds(0.1)).ok());

  // A second raw purge pass is a no-op; the summary TTL erases the record.
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + Duration::minutes(60)),
            0u);
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + Duration::minutes(241)),
            1u);
  EXPECT_EQ(store.stats().record_purges, 1u);
  EXPECT_FALSE(store.contains(id));
  EXPECT_EQ(store.percentiles(id).error().code, ErrorCode::kNotFound);
}

TEST(CaptureStore, WorkspacePurgeLeavesOtherJobsRaw) {
  CaptureStore store;
  const auto a =
      store.append("job-a", "m", make_capture(28, 9000), TimePoint::epoch());
  const auto b =
      store.append("job-b", "m", make_capture(29, 9000), TimePoint::epoch());
  EXPECT_EQ(store.drop_workspace_raw("job-a"), 1u);
  EXPECT_EQ(store.range(a, TimePoint::epoch(),
                        TimePoint::epoch() + Duration::seconds(1))
                .error()
                .code,
            ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(store.range(b, TimePoint::epoch(),
                          TimePoint::epoch() + Duration::seconds(1)).ok());
  // Repeat purge finds nothing left to drop.
  EXPECT_EQ(store.drop_workspace_raw("job-a"), 0u);
}

TEST(CaptureStore, ReencodeInStoreIsDeterministic) {
  // Appending the same capture into two stores yields byte-identical
  // archives — the property DST leans on for digest stability.
  const Capture original = make_capture(33, 9001);
  CaptureStore s1;
  CaptureStore s2;
  const auto id1 = s1.append("job", "m", original, TimePoint::epoch());
  const auto id2 = s2.append("job", "m", original, TimePoint::epoch());
  ASSERT_NE(s1.find(id1), nullptr);
  ASSERT_NE(s2.find(id2), nullptr);
  EXPECT_EQ(s1.find(id1)->serialize(), s2.find(id2)->serialize());
}

}  // namespace
