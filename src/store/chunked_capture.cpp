#include "store/chunked_capture.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <utility>

#include <sys/mman.h>
#include <unistd.h>

#include "store/codec.hpp"

namespace blab::store {
namespace {

constexpr char kMagic[4] = {'B', 'L', 'C', '1'};

util::Error malformed(std::string what) {
  return util::make_error(util::ErrorCode::kInvalidArgument,
                          "chunked capture: " + std::move(what));
}

// Fixed-width parts of the image: the header up to and including the chunk
// count, and each chunk's footer plus its payload length.
constexpr std::size_t kHeaderBytes = 4 + 8 + 8 + 8 + 8 + 8 + 1 + 8;
constexpr std::size_t kFooterBytes = 4 + 4 + 4 + 8 + 8;

char* put_footer(char* p, const ChunkFooter& footer, std::size_t payload) {
  p = put_u32(p, footer.count);
  p = put_f32(p, footer.min_ma);
  p = put_f32(p, footer.max_ma);
  p = put_f64(p, footer.sum_ma);
  return put_u64(p, payload);
}

/// Running min/max/sum over one chunk or one tier bucket, with the
/// comparisons and the sequential double sum the format has always used.
struct Running {
  float lo = 0.0f;
  float hi = 0.0f;
  double sum = 0.0;

  void reset(float first) {
    lo = first;
    hi = first;
    sum = 0.0;
  }
  void add(float x) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    sum += static_cast<double>(x);
  }
};

/// Images this large get their own mapping (see ChunkedCapture::Image).
constexpr std::size_t kMappedImageBytes = std::size_t{1} << 20;

std::size_t round_to_pages(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

/// What the walk's inner loop advances: the write position, the previous
/// sample's bit pattern, and the running chunk and bucket summaries.
template <std::size_t kTiers>
struct Cursor {
  char* p = nullptr;
  std::uint32_t prev = 0;
  Running chunk;
  std::array<Running, kTiers> bucket{};
};

/// Encodes samples [i, stop), none of which starts a chunk or a bucket.
/// The cursor travels by value, so its fields live in registers.
template <std::size_t kTiers>
Cursor<kTiers> encode_run(const float* s, std::size_t i, std::size_t stop,
                          Cursor<kTiers> c) {
  for (; i < stop; ++i) {
    const float v = s[i];
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
    c.p = put_varint(
        c.p, zigzag_encode(std::int64_t{bits} - std::int64_t{c.prev}));
    c.prev = bits;
    c.chunk.add(v);
    for (Running& b : c.bucket) b.add(v);
  }
  return c;
}

/// The encoder's single walk. Chunk footers, the tier buckets and the
/// delta varints advance together; the walk is cut at every chunk and
/// every bucket boundary, so the inner loop has no flush branches.
/// Returns one past the last payload byte.
template <std::size_t kTiers>
char* encode_walk(const std::vector<float>& samples, std::size_t chunk_samples,
                  std::vector<Tier>& tiers, std::vector<ChunkSlot>& chunks,
                  char* const base, char* p) {
  const float* s = samples.data();
  const std::size_t n = samples.size();
  Cursor<kTiers> c;
  c.p = p;
  std::size_t chunk_begin = 0;
  std::size_t chunk_end = 0;
  char* footer = nullptr;
  std::array<std::size_t, kTiers> bucket_begin{};
  std::array<std::size_t, kTiers> bucket_end{};

  const auto flush_chunk = [&] {
    const ChunkFooter f{static_cast<std::uint32_t>(chunk_end - chunk_begin),
                        c.chunk.lo, c.chunk.hi, c.chunk.sum};
    char* payload = footer + kFooterBytes;
    const auto length = static_cast<std::size_t>(c.p - payload);
    put_footer(footer, f, length);
    chunks.push_back(
        ChunkSlot{f, static_cast<std::size_t>(payload - base), length});
  };
  const auto flush_bucket = [&](std::size_t t) {
    Tier& tier = tiers[t];
    const Running& b = c.bucket[t];
    const auto count = static_cast<double>(bucket_end[t] - bucket_begin[t]);
    tier.mean_ma.push_back(static_cast<float>(b.sum / count));
    tier.min_ma.push_back(b.lo);
    tier.max_ma.push_back(b.hi);
  };

  for (std::size_t i = 0; i < n;) {
    const float x = s[i];
    for (std::size_t t = 0; t < kTiers; ++t) {
      if (i != bucket_end[t]) continue;
      if (i > 0) flush_bucket(t);
      c.bucket[t].reset(x);
      bucket_begin[t] = i;
      bucket_end[t] = i + std::min(tiers[t].factor, n - i);
    }
    if (i == chunk_end) {
      if (footer != nullptr) flush_chunk();
      c.chunk.reset(x);
      chunk_begin = i;
      chunk_end = i + std::min(chunk_samples, n - i);
      footer = c.p;
      // A chunk's first sample is its bit pattern, not a delta.
      c.prev = std::bit_cast<std::uint32_t>(x);
      c.p = put_varint(c.p + kFooterBytes, c.prev);
      c.chunk.add(x);
      for (Running& b : c.bucket) b.add(x);
      ++i;
    }
    std::size_t stop = chunk_end;
    for (std::size_t end : bucket_end) stop = std::min(stop, end);
    c = encode_run(s, i, stop, c);
    i = stop;
  }
  if (footer != nullptr) flush_chunk();
  for (std::size_t t = 0; t < kTiers; ++t) flush_bucket(t);
  return c.p;
}

const char* get_tier(const char* p, const char* end, Tier& tier) {
  std::uint64_t factor = 0;
  std::uint64_t buckets = 0;
  p = get_u64(p, end, factor);
  if (p == nullptr) return nullptr;
  p = get_f64(p, end, tier.rate_hz);
  if (p == nullptr) return nullptr;
  p = get_u64(p, end, buckets);
  if (p == nullptr || factor == 0) return nullptr;
  if (!std::isfinite(tier.rate_hz) || tier.rate_hz <= 0.0) return nullptr;
  // 12 bytes per bucket; reject counts the payload cannot hold.
  if (buckets > static_cast<std::uint64_t>(end - p) / 12) return nullptr;
  tier.factor = static_cast<std::size_t>(factor);
  auto read_column = [&](std::vector<float>& column) {
    column.resize(static_cast<std::size_t>(buckets));
    for (auto& v : column) {
      p = get_f32(p, end, v);
      if (p == nullptr) return false;
    }
    return true;
  };
  if (!read_column(tier.mean_ma) || !read_column(tier.min_ma) ||
      !read_column(tier.max_ma)) {
    return nullptr;
  }
  return p;
}

}  // namespace

ChunkedCapture::Image::Image(std::size_t capacity)
    : size_{capacity}, mapped_{capacity >= kMappedImageBytes} {
  if (capacity == 0) return;
  void* p = mapped_ ? ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                    : std::malloc(capacity);
  if (p == nullptr || p == MAP_FAILED) throw std::bad_alloc{};
  data_ = static_cast<char*>(p);
}

ChunkedCapture::Image::Image(const Image& other) : Image{other.size_} {
  if (size_ > 0) std::memcpy(data_, other.data_, size_);
}

ChunkedCapture::Image::Image(Image&& other) noexcept
    : data_{std::exchange(other.data_, nullptr)},
      size_{std::exchange(other.size_, 0)},
      mapped_{std::exchange(other.mapped_, false)} {}

ChunkedCapture::Image& ChunkedCapture::Image::operator=(Image other) noexcept {
  std::swap(data_, other.data_);
  std::swap(size_, other.size_);
  std::swap(mapped_, other.mapped_);
  return *this;
}

ChunkedCapture::Image::~Image() { release(); }

void ChunkedCapture::Image::release() {
  if (data_ == nullptr) return;
  if (mapped_) {
    ::munmap(data_, round_to_pages(size_));
  } else {
    std::free(data_);
  }
  data_ = nullptr;
  size_ = 0;
}

void ChunkedCapture::Image::shrink_to(std::size_t size) {
  if (size >= size_) return;
  if (size == 0) {
    release();
    return;
  }
  if (mapped_) {
    // Whole pages past the new end go back to the OS; the pages a walk
    // never wrote were never resident in the first place.
    const std::size_t keep = round_to_pages(size);
    const std::size_t had = round_to_pages(size_);
    if (keep < had) ::munmap(data_ + keep, had - keep);
  } else if (void* p = std::realloc(data_, size); p != nullptr) {
    data_ = static_cast<char*>(p);  // glibc shrinks in place
  }
  size_ = size;
}

char* ChunkedCapture::put_header(char* p) const {
  std::memcpy(p, kMagic, sizeof(kMagic));
  p = put_u64(p + sizeof(kMagic), static_cast<std::uint64_t>(t0_.us()));
  p = put_f64(p, sample_hz_);
  p = put_f64(p, voltage_);
  p = put_u64(p, sample_count_);
  p = put_u64(p, chunk_samples_);
  *p++ = raw_available_ ? 1 : 0;
  return put_u64(p, chunks_.size());
}

ChunkedCapture::ChunkedCapture() : ChunkedCapture{encode(hw::Capture{})} {}

ChunkedCapture ChunkedCapture::encode(const hw::Capture& capture,
                                      std::size_t chunk_samples) {
  ChunkedCapture cc{Unfilled{}};
  cc.t0_ = capture.start();
  cc.sample_hz_ = capture.sample_hz();
  cc.voltage_ = capture.voltage();
  cc.chunk_samples_ = std::max<std::size_t>(chunk_samples, 1);
  const auto& samples = capture.samples_ma();
  const std::size_t n = samples.size();
  cc.sample_count_ = n;

  std::size_t tier_bytes = 8;
  if (n > 0) {
    for (double rate : kTierRatesHz) {
      if (rate >= cc.sample_hz_) continue;
      const auto factor =
          static_cast<std::size_t>(std::llround(cc.sample_hz_ / rate));
      if (factor < 2) continue;
      if (!cc.tiers_.empty() && cc.tiers_.back().factor == factor) continue;
      Tier tier;
      tier.factor = factor;
      tier.rate_hz = cc.sample_hz_ / static_cast<double>(factor);
      const std::size_t buckets = n / factor + (n % factor != 0 ? 1 : 0);
      tier.mean_ma.reserve(buckets);
      tier.min_ma.reserve(buckets);
      tier.max_ma.reserve(buckets);
      tier_bytes += 8 + 8 + 8 + buckets * 12;
      cc.tiers_.push_back(std::move(tier));
    }
  }
  const std::size_t chunk_count =
      n / cc.chunk_samples_ + (n % cc.chunk_samples_ != 0 ? 1 : 0);
  cc.chunks_.reserve(chunk_count);

  // Written in place at its upper bound, then shrunk to what the walk used.
  Image image{kHeaderBytes + chunk_count * kFooterBytes +
              n * kMaxSampleBytes + tier_bytes};
  char* const base = image.data();
  char* p = base + kHeaderBytes;
  switch (cc.tiers_.size()) {
    case 0:
      p = encode_walk<0>(samples, cc.chunk_samples_, cc.tiers_, cc.chunks_,
                         base, p);
      break;
    case 1:
      p = encode_walk<1>(samples, cc.chunk_samples_, cc.tiers_, cc.chunks_,
                         base, p);
      break;
    default:
      static_assert(std::size(kTierRatesHz) == 2);
      p = encode_walk<2>(samples, cc.chunk_samples_, cc.tiers_, cc.chunks_,
                         base, p);
      break;
  }
  cc.put_header(base);
  p = put_u64(p, cc.tiers_.size());
  for (const Tier& tier : cc.tiers_) {
    p = put_u64(p, tier.factor);
    p = put_f64(p, tier.rate_hz);
    p = put_u64(p, tier.buckets());
    for (float v : tier.mean_ma) p = put_f32(p, v);
    for (float v : tier.min_ma) p = put_f32(p, v);
    for (float v : tier.max_ma) p = put_f32(p, v);
  }
  image.shrink_to(static_cast<std::size_t>(p - base));
  cc.image_ = std::move(image);
  return cc;
}

util::Result<std::vector<float>> ChunkedCapture::decode_chunk(
    std::size_t chunk) const {
  if (chunk >= chunks_.size()) {
    return malformed("chunk index out of range");
  }
  if (!raw_available_) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "raw chunks purged by retention");
  }
  const ChunkSlot& slot = chunks_[chunk];
  std::vector<float> samples;
  if (!decode_samples(
          image_.view().substr(slot.offset, slot.length),
          slot.footer.count, samples)) {
    return malformed("corrupt chunk payload");
  }
  return samples;
}

std::string_view ChunkedCapture::tier_section(std::string_view image) const {
  // The tier section follows the last payload.
  return image.substr(chunks_.empty() ? kHeaderBytes
                                      : chunks_.back().offset +
                                            chunks_.back().length);
}

std::size_t ChunkedCapture::summary_size(std::string_view tiers) const {
  return kHeaderBytes + chunks_.size() * kFooterBytes + tiers.size();
}

void ChunkedCapture::put_summary(char* base, std::string_view tiers) {
  raw_available_ = false;
  char* p = put_header(base);
  for (ChunkSlot& slot : chunks_) {
    p = put_footer(p, slot.footer, 0);
    slot.offset = static_cast<std::size_t>(p - base);
    slot.length = 0;
  }
  std::memcpy(p, tiers.data(), tiers.size());
}

void ChunkedCapture::drop_raw() {
  if (!raw_available_) return;
  const std::string_view tiers = tier_section(image_.view());
  Image summary{summary_size(tiers)};
  put_summary(summary.data(), tiers);
  image_ = std::move(summary);
}

util::Result<std::string> ChunkedCapture::summary_image(
    std::string_view bytes) {
  auto parsed = parse(bytes);
  if (!parsed.ok()) return parsed.error();
  ChunkedCapture& cc = parsed.value();
  const std::string_view tiers = cc.tier_section(bytes);
  std::string summary(cc.summary_size(tiers), '\0');
  cc.put_summary(summary.data(), tiers);
  return summary;
}

double ChunkedCapture::sum_ma() const {
  double sum = 0.0;
  for (const auto& chunk : chunks_) sum += chunk.footer.sum_ma;
  return sum;
}

double ChunkedCapture::mean_ma() const {
  if (sample_count_ == 0) return 0.0;
  return sum_ma() / static_cast<double>(sample_count_);
}

double ChunkedCapture::min_ma() const {
  if (chunks_.empty()) return 0.0;
  float lo = chunks_.front().footer.min_ma;
  for (const auto& chunk : chunks_) lo = std::min(lo, chunk.footer.min_ma);
  return lo;
}

double ChunkedCapture::max_ma() const {
  if (chunks_.empty()) return 0.0;
  float hi = chunks_.front().footer.max_ma;
  for (const auto& chunk : chunks_) hi = std::max(hi, chunk.footer.max_ma);
  return hi;
}

double ChunkedCapture::charge_mah() const {
  return mean_ma() * duration().to_seconds() / 3600.0;
}

const Tier* ChunkedCapture::coarsest_tier_with(std::size_t min_buckets) const {
  const Tier* best = nullptr;
  for (const auto& tier : tiers_) {
    if (tier.buckets() >= min_buckets) best = &tier;
  }
  return best;
}

util::Result<hw::Capture> ChunkedCapture::decode() const {
  if (!raw_available_) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "raw chunks purged by retention");
  }
  std::vector<float> samples;
  samples.reserve(sample_count_);
  for (const ChunkSlot& slot : chunks_) {
    if (!decode_samples(
            image_.view().substr(slot.offset, slot.length),
            slot.footer.count, samples)) {
      return malformed("corrupt chunk payload");
    }
  }
  if (samples.size() != sample_count_) {
    return malformed("chunk counts disagree with header");
  }
  return hw::Capture{t0_, sample_hz_, voltage_, std::move(samples)};
}

util::Result<ChunkedCapture> ChunkedCapture::deserialize(
    std::string_view bytes) {
  auto parsed = parse(bytes);
  if (parsed.ok()) {
    Image& image = parsed.value().image_;
    image = Image{bytes.size()};
    std::memcpy(image.data(), bytes.data(), bytes.size());
  }
  return parsed;
}

util::Result<ChunkedCapture> ChunkedCapture::parse(std::string_view bytes) {
  const char* const begin = bytes.data();
  const char* p = begin;
  const char* end = begin + bytes.size();
  if (bytes.size() < sizeof(kMagic) ||
      std::string_view{p, sizeof(kMagic)} !=
          std::string_view{kMagic, sizeof(kMagic)}) {
    return malformed("bad magic");
  }
  p += sizeof(kMagic);

  ChunkedCapture cc{Unfilled{}};
  std::uint64_t t0_us = 0;
  std::uint64_t sample_count = 0;
  std::uint64_t chunk_samples = 0;
  p = get_u64(p, end, t0_us);
  if (p != nullptr) p = get_f64(p, end, cc.sample_hz_);
  if (p != nullptr) p = get_f64(p, end, cc.voltage_);
  if (p != nullptr) p = get_u64(p, end, sample_count);
  if (p != nullptr) p = get_u64(p, end, chunk_samples);
  if (p == nullptr || p == end) return malformed("truncated header");
  cc.t0_ = util::TimePoint::from_micros(static_cast<std::int64_t>(t0_us));
  cc.sample_count_ = static_cast<std::size_t>(sample_count);
  cc.chunk_samples_ = static_cast<std::size_t>(chunk_samples);
  if (cc.chunk_samples_ == 0 || !(cc.sample_hz_ > 0.0) ||
      !std::isfinite(cc.sample_hz_) || !std::isfinite(cc.voltage_)) {
    return malformed("bad header fields");
  }
  const std::uint8_t raw_flag = static_cast<std::uint8_t>(*p++);
  if (raw_flag > 1) return malformed("bad raw-tier flag");
  cc.raw_available_ = raw_flag == 1;
  // While the raw tier is present the delta codec spends at least one byte
  // per sample, so a sample count the input cannot possibly back must die
  // here — before decode() sizes a vector from it. Purged captures carry
  // footers only; their counts are bounded by the per-chunk checks below.
  if (cc.raw_available_ && sample_count > bytes.size()) {
    return malformed("bad header fields");
  }

  std::uint64_t chunk_count = 0;
  p = get_u64(p, end, chunk_count);
  if (p == nullptr) return malformed("truncated chunk table");
  // Every chunk takes at least its footer, which bounds the reserve.
  cc.chunks_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      chunk_count, static_cast<std::uint64_t>(end - p) / kFooterBytes)));
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    ChunkSlot slot;
    std::uint64_t payload = 0;
    p = get_u32(p, end, slot.footer.count);
    if (p != nullptr) p = get_f32(p, end, slot.footer.min_ma);
    if (p != nullptr) p = get_f32(p, end, slot.footer.max_ma);
    if (p != nullptr) p = get_f64(p, end, slot.footer.sum_ma);
    if (p != nullptr) p = get_u64(p, end, payload);
    if (p == nullptr || payload > static_cast<std::uint64_t>(end - p)) {
      return malformed("truncated chunk");
    }
    // With the raw tier present every sample costs at least one payload
    // byte and empty chunks carry none; purged chunks carry footers only.
    // Either way a chunk never holds more than chunk_samples_ samples.
    const bool payload_consistent =
        cc.raw_available_
            ? slot.footer.count <= payload &&
                  (slot.footer.count > 0 || payload == 0)
            : payload == 0;
    if (!payload_consistent || slot.footer.count > cc.chunk_samples_) {
      return malformed("chunk count disagrees with payload");
    }
    if (!std::isfinite(slot.footer.sum_ma)) {
      return malformed("bad chunk footer");
    }
    slot.offset = static_cast<std::size_t>(p - begin);
    slot.length = static_cast<std::size_t>(payload);
    p += payload;
    total += slot.footer.count;
    cc.chunks_.push_back(slot);
  }
  if (total != cc.sample_count_) {
    return malformed("chunk counts disagree with header");
  }

  std::uint64_t tier_count = 0;
  p = get_u64(p, end, tier_count);
  if (p == nullptr) return malformed("truncated tier table");
  for (std::uint64_t i = 0; i < tier_count; ++i) {
    Tier tier;
    p = get_tier(p, end, tier);
    if (p == nullptr) return malformed("truncated tier");
    cc.tiers_.push_back(std::move(tier));
  }
  if (p != end) return malformed("trailing bytes");
  return cc;
}

}  // namespace blab::store
