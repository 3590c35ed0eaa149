// wallbench: one workload run of the wall-clock benchmark.
//
//   wallbench --workload local_dual --seed 1 --seconds 10 --trace 0
//
// Prints one JSON line: provenance, the run's attempted/failed counts, the
// first check failures, the metric values by name and the exact guards.
// run.py turns that into the benchmark's result line, taking metric names
// and units from BENCHMARK.json.  Exits 1 when a check failed, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "linalg/half.hpp"
#include "linalg/kernels.hpp"
#include "obs/build_info.hpp"
#include "obs/json.hpp"

namespace {

using namespace wallbench;
using tpa::obs::JsonObject;

constexpr const char* kUsage =
    "usage: wallbench --workload local_dual|cluster_sync|cluster_async|"
    "serve_closed --seed N --seconds S --trace 0|1 [--tiny] "
    "[--perturb model|prediction]\n";

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--perturb") {
      options.perturb = value();
    } else {
      return false;
    }
  }
  return (options.workload == "local_dual" ||
          options.workload == "cluster_sync" ||
          options.workload == "cluster_async" ||
          options.workload == "serve_closed") &&
         options.seconds > 0.0;
}

std::string provenance() {
  const auto info = tpa::obs::build_info();
  return JsonObject()
      .field_str("git_sha", info.git_sha)
      .field_str("compiler", info.compiler)
      .field_str("build_type", info.build_type)
      .field_uint("nproc", std::thread::hardware_concurrency())
      .field_str("kernel_backend", tpa::linalg::kernel_backend_name(
                                       tpa::linalg::kernel_backend()))
      .field_bool("kernel_native", tpa::linalg::kernel_native_build())
      .field_str("shared_precision", tpa::linalg::shared_precision_name(
                                         tpa::linalg::shared_precision()))
      .str();
}

std::string result_line(const Options& options, const Outcome& outcome) {
  JsonObject metrics;
  for (const auto& [name, value] : outcome.metrics) {
    metrics.field_num(name, value);
  }
  JsonObject info;
  for (const auto& metric : outcome.info) {
    info.field_raw(metric.name, JsonObject()
                                    .field_num("value", metric.value)
                                    .field_str("unit", metric.unit)
                                    .str());
  }
  std::string failures = "[";
  for (const auto& message : outcome.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += tpa::obs::json_quote(message);
  }
  failures += "]";
  return JsonObject()
      .field_str("workload", options.workload)
      .field_uint("seed", options.seed)
      .field_bool("trace", options.trace)
      .field_raw("provenance", provenance())
      .field_uint("attempted", outcome.attempted)
      .field_uint("failed", outcome.failed)
      .field_raw("failures", failures)
      .field_raw("metrics", metrics.str())
      .field_raw("info", info.str())
      .str();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  try {
    const Outcome outcome = options.workload == "serve_closed"
                                ? run_serving(options)
                                : run_training(options);
    std::printf("%s\n", result_line(options, outcome).c_str());
    return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "wallbench: %s\n", error.what());
    return 1;
  }
}
