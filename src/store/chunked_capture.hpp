// Chunked columnar representation of one hw::Capture.
//
// Fixed-size sample chunks (timestamps implicit from the sample rate), each
// delta+zigzag+varint encoded with a min/max/sum footer, plus a ladder of
// downsample tiers (raw 5 kHz -> 50 Hz -> 1 Hz) built once at encode time.
// Footers and tiers answer summary and distribution queries without touching
// raw chunk bytes, and survive raw-tier retention purges.
//
// The in-memory form is the canonical `BLC1` image itself: chunk payloads
// live only there, behind a small index of footers and payload offsets, and
// the persist layer journals the same bytes by reference. Footers and tiers
// are also kept decoded (tiers are ~4% of a raw image), so queries never
// parse the image.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hw/power_monitor.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace blab::store {

struct ChunkFooter {
  std::uint32_t count = 0;
  float min_ma = 0.0f;
  float max_ma = 0.0f;
  double sum_ma = 0.0;  ///< exact running sum of the chunk's samples
};

/// Where one chunk's codec payload sits in the image; the payload is empty
/// once the raw tier is purged.
struct ChunkSlot {
  ChunkFooter footer;
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// One downsample tier: consecutive windows of `factor` raw samples reduced
/// to (mean, min, max). The final window may be partial; its sample count is
/// derivable from the capture's total.
struct Tier {
  std::size_t factor = 1;   ///< raw samples per bucket
  double rate_hz = 0.0;     ///< effective bucket rate (sample_hz / factor)
  std::vector<float> mean_ma;
  std::vector<float> min_ma;
  std::vector<float> max_ma;

  std::size_t buckets() const { return mean_ma.size(); }
};

class ChunkedCapture {
 public:
  static constexpr std::size_t kDefaultChunkSamples = 4096;
  /// Tier ladder targets; rates at or above the raw rate are skipped.
  static constexpr double kTierRatesHz[] = {50.0, 1.0};

  /// An empty capture (no samples), with its image.
  ChunkedCapture();

  /// Encode a capture in one walk over its samples, straight into the
  /// image. Deterministic: the same capture always yields the same bytes
  /// (byte-identical re-encode).
  static ChunkedCapture encode(const hw::Capture& capture,
                               std::size_t chunk_samples =
                                   kDefaultChunkSamples);

  // -- header ------------------------------------------------------------
  util::TimePoint start() const { return t0_; }
  double sample_hz() const { return sample_hz_; }
  double voltage() const { return voltage_; }
  std::size_t sample_count() const { return sample_count_; }
  std::size_t chunk_samples() const { return chunk_samples_; }
  util::Duration duration() const {
    return util::Duration::seconds(static_cast<double>(sample_count_) /
                                   sample_hz_);
  }

  // -- raw chunks --------------------------------------------------------
  std::size_t chunk_count() const { return chunks_.size(); }
  const ChunkFooter& footer(std::size_t chunk) const {
    return chunks_[chunk].footer;
  }
  bool raw_available() const { return raw_available_; }
  util::Result<std::vector<float>> decode_chunk(std::size_t chunk) const;
  /// Retention: drop raw chunk payloads and rebuild the image as the
  /// summary image; footers and tiers persist.
  void drop_raw();

  // -- footer summaries (never decode raw) -------------------------------
  double sum_ma() const;
  double mean_ma() const;
  double min_ma() const;
  double max_ma() const;
  double charge_mah() const;
  double energy_mwh() const { return charge_mah() * voltage_; }

  // -- tiers -------------------------------------------------------------
  /// Ordered finest to coarsest.
  const std::vector<Tier>& tiers() const { return tiers_; }
  /// Coarsest tier with at least `min_buckets` buckets (nullptr if none).
  const Tier* coarsest_tier_with(std::size_t min_buckets) const;
  const Tier* finest_tier() const {
    return tiers_.empty() ? nullptr : &tiers_.front();
  }

  /// Lossless reconstruction; fails once the raw tier has been purged.
  util::Result<hw::Capture> decode() const;

  /// Encoded footprint: chunk payloads + footers + tiers (what a disk file
  /// would hold; compare against CSV size for the compression ratio).
  std::size_t byte_size() const { return image_.size(); }

  /// The canonical image: the capture's in-memory form itself, handed out
  /// without a copy. Valid until the capture is modified or destroyed.
  std::string_view serialize() const { return image_.view(); }
  /// Validate an image and copy it, in one piece, into the capture's own
  /// image buffer. Rejects anything serialize() would not emit.
  static util::Result<ChunkedCapture> deserialize(std::string_view bytes);
  /// The image deserialize(bytes) would hold after drop_raw(), built
  /// without copying the raw image first (segment demotion). Rejects what
  /// deserialize rejects.
  static util::Result<std::string> summary_image(std::string_view bytes);

 private:
  /// Owner of the image's bytes. Allocated at an upper bound, written in
  /// place, then shrunk in place, so its capacity is its size (to the page,
  /// for a mapping). Images of a megabyte or more get their own anonymous
  /// memory mapping: a paper-job image lives for the raw TTL among
  /// short-lived buffers of the same size (segment reads at demotion),
  /// and in a heap that mix leaves holes no later image fits, while an
  /// unmapped image returns its pages to the OS. Smaller images use the
  /// heap.
  class Image {
   public:
    Image() = default;
    explicit Image(std::size_t capacity);
    Image(const Image& other);
    Image(Image&& other) noexcept;
    Image& operator=(Image other) noexcept;
    ~Image();

    char* data() { return data_; }
    std::size_t size() const { return size_; }
    std::string_view view() const { return {data_, size_}; }
    /// Keep the first `size` bytes (at most the capacity), release the rest.
    void shrink_to(std::size_t size);

   private:
    void release();

    char* data_ = nullptr;
    std::size_t size_ = 0;
    bool mapped_ = false;
  };

  struct Unfilled {};
  /// Header defaults and no image yet; encode and deserialize fill it in.
  explicit ChunkedCapture(Unfilled) {}

  /// Every check deserialize makes, filling in all but the image; chunk
  /// offsets refer to `bytes`.
  static util::Result<ChunkedCapture> parse(std::string_view bytes);

  /// Writes the image header (through the chunk count) at `p`.
  char* put_header(char* p) const;
  /// The tier section of `image`, this capture's image or the one it was
  /// parsed from.
  std::string_view tier_section(std::string_view image) const;
  std::size_t summary_size(std::string_view tiers) const;
  /// Writes the summary image (raw flag cleared, empty payloads, `tiers`)
  /// at `base` and points the chunk index into it.
  void put_summary(char* base, std::string_view tiers);

  util::TimePoint t0_;
  double sample_hz_ = 5000.0;
  double voltage_ = 0.0;
  std::size_t sample_count_ = 0;
  std::size_t chunk_samples_ = kDefaultChunkSamples;
  bool raw_available_ = true;
  Image image_;
  std::vector<ChunkSlot> chunks_;
  std::vector<Tier> tiers_;
};

}  // namespace blab::store
