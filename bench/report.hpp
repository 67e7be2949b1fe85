// The result contract of the JSON benches that BENCH_core.json gates
// (scenario_e2e, store_throughput, store_persist, flame_aggregate,
// health_rollup), with the timing and flag helpers they share.
//
// Each such bench prints one flat JSON object on stdout through
// print_result(). A value BENCH_core.json pins carries its pinned name
// exactly (scenario_e2e_events_per_s, store_encode_samples_per_s, ...), in
// the pinned unit; every other value is informational. scripts/bench_gate.py
// reads the result files and finds each pinned name in exactly one of them.
//
// This header is separate from bench/common.hpp because the end-to-end
// benchmark (bench/e2e) includes common.hpp.
#pragma once

#include <chrono>
#include <cstdlib>
#include <initializer_list>
#include <ostream>
#include <string_view>
#include <utility>

#include "util/strings.hpp"

namespace blab::bench {

/// Steady-clock seconds elapsed since `t0`.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The number in a `--name=N` argument, `name` being its "--name=" prefix.
inline unsigned long flag_value(std::string_view arg, std::string_view name) {
  return std::strtoul(arg.substr(name.size()).data(), nullptr, 10);
}

/// Prints the (name, value) pairs in order as one flat JSON object: a
/// `  "name": value` line each, the value with three decimals.
inline void print_result(
    std::ostream& os,
    std::initializer_list<std::pair<std::string_view, double>> entries) {
  os << "{\n";
  std::string_view sep;
  for (const auto& [name, value] : entries) {
    os << sep << "  \"" << name << "\": " << util::format_double(value, 3);
    sep = ",\n";
  }
  os << "\n}\n";
}

}  // namespace blab::bench
