#include "analysis/trace_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "util/parse.hpp"
#include "util/strings.hpp"

namespace blab::analysis {
namespace {

/// A file export succeeded only if every write and the close did: a full
/// disk or an I/O error fails the stream, not the open.
util::Status close_checked(std::ofstream& out, const std::string& path) {
  const bool written = static_cast<bool>(out);
  out.close();
  if (!written || !out) {
    return util::make_error(util::ErrorCode::kUnavailable,
                            "write failed for " + path);
  }
  return util::Status::ok_status();
}

}  // namespace

void write_capture_csv(const hw::Capture& capture, std::ostream& os,
                       std::size_t stride) {
  if (stride == 0) stride = 1;
  os << "time_s,current_mA,voltage\n";
  if (stride > 1) {
    // Decimated export: record the effective rate explicitly. Rounded row
    // timestamps cannot recover it exactly (0.000732421875 s prints as
    // 0.000732), and without the marker a re-import would silently claim a
    // slightly wrong rate — which skews charge/energy integrals.
    os << "# effective_hz="
       << util::format_double(capture.sample_hz() / static_cast<double>(stride),
                              6)
       << " source_hz=" << util::format_double(capture.sample_hz(), 6)
       << " stride=" << stride << '\n';
  }
  const auto& samples = capture.samples_ma();
  const double dt = 1.0 / capture.sample_hz();
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    os << util::format_double(static_cast<double>(i) * dt, 6) << ','
       << util::format_double(samples[i], 3) << ','
       << util::format_double(capture.voltage(), 3) << '\n';
  }
}

util::Status write_capture_csv(const hw::Capture& capture,
                               const std::string& path, std::size_t stride) {
  std::ofstream out{path};
  if (!out) {
    return util::make_error(util::ErrorCode::kUnavailable,
                            "cannot open " + path + " for writing");
  }
  write_capture_csv(capture, out, stride);
  return close_checked(out, path);
}

util::Result<hw::Capture> read_capture_csv_stream(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) ||
      util::trim(line) != "time_s,current_mA,voltage") {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "missing Monsoon CSV header");
  }
  std::vector<float> samples;
  double voltage = 0.0;
  double first_t = 0.0;
  double second_t = 0.0;
  double prev_t = 0.0;
  double marker_hz = 0.0;
  std::size_t row = 0;
  while (std::getline(is, line)) {
    const std::string trimmed{util::trim(line)};
    if (trimmed.empty()) continue;
    if (trimmed.front() == '#') {
      // Metadata comment; pick up the effective-rate marker if present.
      for (const auto& token : util::split(trimmed.substr(1), ' ')) {
        if (util::starts_with(token, "effective_hz=")) {
          const auto hz = util::parse_double(token.substr(13));
          if (!hz.has_value()) {
            return util::make_error(util::ErrorCode::kInvalidArgument,
                                    "bad effective_hz marker: " + trimmed);
          }
          marker_hz = *hz;
        }
      }
      continue;
    }
    const auto fields = util::split(line, ',');
    if (fields.size() != 3) {
      return util::make_error(util::ErrorCode::kInvalidArgument,
                              "bad row " + std::to_string(row) + ": " + line);
    }
    // Strict full-match parses: "1.5abc" or an out-of-range literal is a
    // malformed row, not a best-effort 1.5. parse_double also rejects the
    // "nan"/"inf" spellings, which keeps the non-finite error reserved for
    // values that overflow to infinity after arithmetic elsewhere.
    const auto t_parsed = util::parse_double(util::trim(fields[0]));
    const auto current_parsed = util::parse_double(util::trim(fields[1]));
    const auto v_parsed = util::parse_double(util::trim(fields[2]));
    if (!t_parsed.has_value() || !current_parsed.has_value() ||
        !v_parsed.has_value()) {
      return util::make_error(util::ErrorCode::kInvalidArgument,
                              "unparseable row " + std::to_string(row));
    }
    const double t = *t_parsed;
    if (row > 0 && t <= prev_t) {
      return util::make_error(
          util::ErrorCode::kInvalidArgument,
          "out-of-order timestamp in row " + std::to_string(row));
    }
    samples.push_back(static_cast<float>(*current_parsed));
    voltage = *v_parsed;
    if (row == 0) first_t = t;
    if (row == 1) second_t = t;
    prev_t = t;
    ++row;
  }
  if (samples.empty()) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "capture has no samples");
  }
  const double dt = row > 1 ? second_t - first_t : 1.0 / 5000.0;
  if (dt <= 0.0) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "non-monotonic timestamps");
  }
  if (marker_hz < 0.0 || !std::isfinite(marker_hz)) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "bad effective_hz marker");
  }
  const double hz = marker_hz > 0.0 ? marker_hz : 1.0 / dt;
  return hw::Capture{util::TimePoint::epoch(), hz, voltage,
                     std::move(samples)};
}

util::Result<hw::Capture> read_capture_csv(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    return util::make_error(util::ErrorCode::kNotFound,
                            "cannot open " + path);
  }
  return read_capture_csv_stream(in);
}

void write_capture_chunked(const hw::Capture& capture, std::ostream& os) {
  const store::ChunkedCapture chunked = store::ChunkedCapture::encode(capture);
  const std::string_view bytes = chunked.serialize();
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

util::Status write_capture_chunked(const hw::Capture& capture,
                                   const std::string& path) {
  std::ofstream out{path, std::ios::binary};
  if (!out) {
    return util::make_error(util::ErrorCode::kUnavailable,
                            "cannot open " + path + " for writing");
  }
  write_capture_chunked(capture, out);
  return close_checked(out, path);
}

util::Result<hw::Capture> read_capture_chunked_stream(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  auto chunked = store::ChunkedCapture::deserialize(buffer.str());
  if (!chunked.ok()) return chunked.error();
  return chunked.value().decode();
}

util::Result<hw::Capture> read_capture_chunked(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    return util::make_error(util::ErrorCode::kNotFound,
                            "cannot open " + path);
  }
  return read_capture_chunked_stream(in);
}

std::string capture_summary(const hw::Capture& capture) {
  std::ostringstream os;
  os << capture.sample_count() << " samples @ "
     << util::format_double(capture.sample_hz(), 0) << " Hz, "
     << util::format_double(capture.duration().to_seconds(), 1) << " s, mean "
     << util::format_double(capture.mean_current_ma(), 1) << " mA, "
     << util::format_double(capture.charge_mah(), 3) << " mAh @ "
     << util::format_double(capture.voltage(), 2) << " V";
  return os.str();
}

}  // namespace blab::analysis
