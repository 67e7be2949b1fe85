// Deterministic regenerator for the sample-bearing fuzz corpus seeds.
//
// Most seeds under tests/fuzz_corpus/ are tiny hand-written byte strings
// (bad magics, overlong varints, truncated escapes) that never go stale.
// The exceptions are the seeds that are images of the manifest format,
// which a format change rewrites, and the seeds that embed *real* encoded
// captures — a capture image (what a segment file holds) and codec seeds
// carrying canonical sample streams. Those samples come from the repo's
// own noise sampler, so a deliberate sampler change (e.g. the Box-Muller ->
// ziggurat switch) leaves the checked-in bytes encoding draws the current
// Rng can no longer produce. The replay lane still passes — the parsers
// don't care where the floats came from — but the corpus slowly drifts
// away from the byte patterns the live system actually writes, which is
// exactly the distribution fuzz coverage should anchor on.
//
// This tool rebuilds those seeds from the current sampler and formats,
// deterministically (fixed Rng seed, fixed timestamps), so regeneration is
// a reviewable one-commit diff:
//
//   build/fuzz/make_seed_corpus [corpus_root]   # default tests/fuzz_corpus
//
// The fuzz_seed_corpus_current ctest regenerates them into a scratch
// directory and fails when any differs from the checked-in corpus.
//
// Regenerated seeds (everything else is left untouched):
//   store_codec_fuzz/roundtrip_seed   mode 0: canonical encoded stream
//   store_codec_fuzz/flip_seed        mode 3: capture + one-byte corruption
//   persist_fuzz/capture_image        mode 0: a raw capture's image
//   persist_fuzz/manifest_valid       mode 1: canonical manifest image
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "hw/power_monitor.hpp"
#include "store/chunked_capture.hpp"
#include "store/codec.hpp"
#include "store/persist/crc32c.hpp"
#include "store/persist/formats.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace {

namespace persist = blab::store::persist;
using blab::util::TimePoint;

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>(v >> 8));
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "make_seed_corpus: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
  return true;
}

/// A realistic current trace: steady draw plus sampler noise, clamped at
/// zero like the monitor's synthesis path.
std::vector<float> make_samples(blab::util::Rng& rng, std::size_t n) {
  std::vector<double> noise(n);
  rng.fill_normal(noise, 230.0, 35.0);
  std::vector<float> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples[i] = static_cast<float>(std::max(0.0, noise[i]));
  }
  return samples;
}

std::string make_capture_bytes(blab::util::Rng& rng, std::size_t n,
                               std::size_t chunk_samples, bool purge_raw) {
  blab::hw::Capture capture{TimePoint::epoch(), 5000.0, 3.7,
                            make_samples(rng, n)};
  auto cc = blab::store::ChunkedCapture::encode(capture, chunk_samples);
  if (purge_raw) cc.drop_raw();
  return std::string{cc.serialize()};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : "tests/fuzz_corpus";
  // Fixed seed: reruns on an unchanged sampler are byte-for-byte no-ops.
  blab::util::Rng rng{0xB10C5EEDU};
  bool ok = true;

  // store_codec_fuzz/roundtrip_seed — mode 0 (arbitrary-bytes decode) fed a
  // canonical stream, so the decode-implies-reencode-identity oracle runs
  // on the accepting path, not just on rejections.
  {
    const std::vector<float> samples = make_samples(rng, 24);
    std::string seed;
    seed.push_back('\x00');
    put_u16(seed, static_cast<std::uint16_t>(samples.size()));
    seed += blab::store::encode_samples(samples.data(), samples.size());
    ok &= write_file(root + "/store_codec_fuzz/roundtrip_seed", seed);
  }

  // store_codec_fuzz/flip_seed — mode 3 (encode, flip one byte, reparse).
  // The harness scales the u16 words by 1/7 mA; draw them from the sampler
  // so the encoded deltas look like a real trace's.
  {
    std::string seed;
    seed.push_back('\x03');
    put_u16(seed, 0x0011);    // flip_pos
    seed.push_back('\xA5');   // flip_mask
    seed.push_back('\x00');   // keep the raw tier
    seed.push_back('\x3C');   // chunk_samples -> 1 + 0x3C % 64 = 61
    constexpr std::size_t kWords = 96;
    put_u16(seed, kWords);
    std::vector<double> draws(kWords);
    rng.fill_normal(std::span<double>{draws}, 1600.0, 240.0);
    for (double d : draws) {
      put_u16(seed, static_cast<std::uint16_t>(
                        std::clamp(d, 0.0, 65535.0)));
    }
    ok &= write_file(root + "/store_codec_fuzz/flip_seed", seed);
  }

  // persist_fuzz/capture_image — mode 0 (the CRC32C differential) fed the
  // bytes of a raw segment file: one capture's image.
  const std::string image = make_capture_bytes(rng, 128, 32, false);
  ok &= write_file(root + "/persist_fuzz/capture_image",
                   std::string{"\x00", 1} + image);

  // persist_fuzz/manifest_valid — mode 1, odd selector: canonical manifest.
  // Its first capture's file is a raw segment whose capture is already
  // summary (a committed drop awaiting demotion).
  {
    const std::string summary =
        blab::store::ChunkedCapture::summary_image(image).value();
    const std::string other = make_capture_bytes(rng, 96, 32, false);
    persist::Manifest manifest;
    manifest.version = 4;
    manifest.next_seq = 17;
    manifest.entries = {
        {{"vp-oslo", 7}, "SM-G960F", TimePoint::from_micros(9000000),
         "seg-r-1.blsg", persist::kTierSummary, image.size(),
         persist::crc32c(image)},
        {{"vp-oslo", 9}, "BacoX", TimePoint::from_micros(12500000),
         "seg-s-2.blsg", persist::kTierSummary, summary.size(),
         persist::crc32c(summary)},
        {{"vp-rio", 3}, "SM-G960F", TimePoint::from_micros(14000000),
         "seg-r-3.blsg", persist::kTierRaw, other.size(),
         persist::crc32c(other)}};
    ok &= write_file(root + "/persist_fuzz/manifest_valid",
                     std::string{"\x01\x01"} +
                         persist::encode_manifest(manifest));
  }

  return ok ? 0 : 1;
}
