// Capture trace import/export.
//
// The access server "collects logs from the power meter which are made
// available for several days within the job's workspace" (§3.1). Captures
// serialize to the Monsoon PowerTool CSV dialect (time_s,current_mA,voltage)
// so external tooling can consume them, and round-trip back for offline
// analysis.
#pragma once

#include <iosfwd>
#include <string>

#include "hw/power_monitor.hpp"
#include "store/chunked_capture.hpp"
#include "util/result.hpp"

namespace blab::analysis {

/// Write a capture as CSV. `stride` keeps every n-th sample (1 = all; a
/// 5-minute 5 kHz capture at stride 1 is 1.5 M rows). The file writers
/// (here and write_capture_chunked) fail with kUnavailable when the file
/// cannot be opened or any write or the close fails.
util::Status write_capture_csv(const hw::Capture& capture,
                               const std::string& path,
                               std::size_t stride = 1);
void write_capture_csv(const hw::Capture& capture, std::ostream& os,
                       std::size_t stride = 1);

/// Parse a capture back. The sample rate is recovered from row timestamps;
/// malformed rows fail with kInvalidArgument.
util::Result<hw::Capture> read_capture_csv(const std::string& path);
util::Result<hw::Capture> read_capture_csv_stream(std::istream& is);

/// Summarize a capture in one line (for job logs).
std::string capture_summary(const hw::Capture& capture);

/// Chunked-format adapters: serialize a capture in the store's compressed
/// columnar format (lossless, ~2-3 bytes/sample vs ~22 bytes/row CSV).
/// Exports that already live in a CaptureStore can be written directly via
/// `ChunkedCapture::serialize()`; these helpers cover the file boundary.
util::Status write_capture_chunked(const hw::Capture& capture,
                                   const std::string& path);
void write_capture_chunked(const hw::Capture& capture, std::ostream& os);
util::Result<hw::Capture> read_capture_chunked(const std::string& path);
util::Result<hw::Capture> read_capture_chunked_stream(std::istream& is);

}  // namespace blab::analysis
