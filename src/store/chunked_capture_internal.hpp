// Internals of ChunkedCapture for its tests and the codec fuzz harness: the
// encoder it is checked against. Not part of the store's interface.
#pragma once

#include <cstddef>
#include <string>

#include "hw/power_monitor.hpp"

namespace blab::store::detail {

/// The four-pass encoder ChunkedCapture::encode replaced, kept as its
/// reference: chunk footers, the chunk varints (appended a byte at a time)
/// and each downsample tier in their own walks, then the image assembled
/// field by field. Returns the `BLC1` image; with `drop_raw`, the summary
/// image ChunkedCapture::drop_raw() leaves. ChunkedCapture must produce
/// these bytes exactly.
std::string encode_reference(const hw::Capture& capture,
                             std::size_t chunk_samples, bool drop_raw = false);

}  // namespace blab::store::detail
