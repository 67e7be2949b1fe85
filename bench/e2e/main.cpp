// bench_e2e: runs one workload of the end-to-end benchmark in this process
// and prints its metrics. run.py (next to this file) is the entry point that
// builds this binary and drives it; see README.md.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|smoke] [--work-dir DIR] [--artifacts DIR]
//
// NAME is paper_job, usability_session, fleet_query, scenario_corpus, or
// (smoke scale only) all. Output: one "name value unit" line per metric and
// per informational value, then, as the last line, one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the layer ledger (--trace 1).
// Exits 1 when any operation failed or any correctness check did not hold,
// 2 on bad arguments.
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unistd.h>

#include "bench/e2e/workloads.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"

using namespace blab;
using namespace blab::bench::e2e;

namespace {

using WorkloadFn = void (*)(const Options&, Report&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"paper_job", run_paper_job},
      {"usability_session", run_usability_session},
      {"fleet_query", run_fleet_query},
      {"scenario_corpus", run_scenario_corpus},
  };
  return kWorkloads;
}

/// The metrics the result line carries: every end-to-end metric untraced,
/// every layer metric traced (0 where the workload never calls the layer).
std::vector<Report::Metric> result_metrics(const Options& opts,
                                           const Report& report) {
  if (!opts.trace) return report.metrics();
  std::vector<Report::Metric> out;
  for (const LayerMetric& m : layer_metrics()) {
    Report::Metric row{m.name, 0.0, m.unit};
    for (const Report::Metric& r : report.metrics()) {
      if (r.name == m.name) row.value = r.value;
    }
    out.push_back(row);
  }
  for (const Report::Metric& r : report.metrics()) {
    bool known = false;
    for (const LayerMetric& m : layer_metrics()) known |= r.name == m.name;
    if (!known) throw std::logic_error{"unlisted layer metric " + r.name};
  }
  return out;
}

std::string result_line(const Report& report,
                        const std::vector<Report::Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted());
  out += ", \"failed\": " + std::to_string(report.failed());
  out += ", \"metrics\": {";
  bool sep = false;
  for (const Report::Metric& m : metrics) {
    if (sep) out += ", ";
    sep = true;
    out += json_string(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

/// Run one workload; prints its lines and returns whether it was correct.
bool run_one(Options opts, bool last_line_json) {
  Report report;
  try {
    workloads().at(opts.workload)(opts, report);
  } catch (const std::exception& e) {
    report.op(false, std::string{"aborted: "} + e.what());
  }
  std::vector<Report::Metric> metrics;
  try {
    metrics = result_metrics(opts, report);
  } catch (const std::exception& e) {
    report.op(false, e.what());
  }
  for (const Report::Metric& m : metrics) {
    std::cout << m.name << ' ' << number(m.value) << ' ' << m.unit << '\n';
  }
  for (const Report::Metric& i : report.infos()) {
    std::cout << i.name << ' ' << number(i.value) << ' ' << i.unit << '\n';
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(report.digest().value()));
  std::cout << "outcome_digest " << digest << " hex\n";
  for (const std::string& why : report.failures()) {
    std::cerr << opts.workload << ": FAIL: " << why << '\n';
  }
  if (last_line_json) std::cout << result_line(report, metrics) << '\n';
  std::cout.flush();
  return report.correct();
}

bool parse_args(int argc, char** argv, Options& opts) {
  std::string scale = "full";
  std::string trace = "0";
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      const auto seed = util::parse_u64(value);
      if (!seed.has_value()) return false;
      opts.seed = *seed;
    } else if (flag == "--seconds") {
      const auto seconds = util::parse_u64(value);
      if (!seconds.has_value()) return false;
      opts.seconds = static_cast<double>(*seconds);
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--scale") {
      scale = value;
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--artifacts") {
      opts.artifact_dir = value;
    } else {
      return false;
    }
  }
  if (trace != "0" && trace != "1") return false;
  if (scale != "full" && scale != "smoke") return false;
  opts.trace = trace == "1";
  opts.smoke = scale == "smoke";
  if (opts.smoke) opts.seconds = 0.0;
  if (opts.workload == "all") return opts.smoke;
  return workloads().contains(opts.workload);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    std::cerr << "usage: bench_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale full|smoke] [--work-dir DIR] "
                 "[--artifacts DIR]\n";
    return 2;
  }
  util::Logger::global().set_level(util::LogLevel::kOff);

  const std::string root = opts.work_dir.empty() ? "." : opts.work_dir;
  opts.work_dir = make_dir(root, "bench-e2e-" + std::to_string(getpid()));
  bool ok = true;
  if (opts.workload == "all") {
    for (const auto& [name, fn] : workloads()) {
      Options one = opts;
      one.workload = name;
      const bool passed = run_one(one, /*last_line_json=*/false);
      std::cout << name << (passed ? " ok" : " FAILED") << "\n";
      ok &= passed;
    }
  } else {
    ok = run_one(opts, /*last_line_json=*/true);
  }
  remove_dir(opts.work_dir);
  return ok ? 0 : 1;
}
