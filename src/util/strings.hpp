// Small string helpers used across modules (command parsing, config, output).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace blab::util {

std::vector<std::string> split(std::string_view s, char delim);
/// Split on runs of whitespace, dropping empty tokens (shell-style argv).
std::vector<std::string> split_ws(std::string_view s);
std::string_view trim(std::string_view s);
std::string join(const std::vector<std::string>& parts, std::string_view sep);
bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);
std::string to_lower(std::string_view s);
/// Fixed-precision double formatting, e.g. format_double(3.14159, 2) == "3.14".
std::string format_double(double v, int precision);
/// "12.3 KB" / "4.0 MB" style byte formatting.
std::string format_bytes(double bytes);
/// Append `s` to `out` as a JSON string literal: `"` and `\` are
/// backslash-escaped, newline and tab become `\n` and `\t`, and every other
/// control character becomes `\u00XX`. Every telemetry encoder uses it.
void append_json_string(std::string& out, std::string_view s);

}  // namespace blab::util
