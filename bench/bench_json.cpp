#include "bench_json.hpp"

#include <fstream>
#include <stdexcept>
#include <thread>

#include "linalg/kernels.hpp"
#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "util/thread_pool.hpp"

namespace tpa::bench {
namespace {

BenchMeta provenance_meta() {
  const auto info = obs::build_info();
  return {
      {"git_sha", info.git_sha},
      {"compiler", info.compiler},
      {"build_type", info.build_type},
      {"kernel_backend",
       linalg::kernel_backend_name(linalg::kernel_backend())},
      {"kernel_native", linalg::kernel_native_build() ? "true" : "false"},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"usable_cpus", std::to_string(util::usable_cpus())},
  };
}

}  // namespace

std::string to_json(const std::string& suite,
                    std::span<const BenchResult> results,
                    const BenchMeta& meta) {
  std::string out = "{\n  \"suite\": " + obs::json_quote(suite);
  if (!meta.empty()) {
    out += ",\n  \"meta\": {";
    for (std::size_t i = 0; i < meta.size(); ++i) {
      out += i == 0 ? "" : ", ";
      out += obs::json_quote(meta[i].first) + ": " +
             obs::json_quote(meta[i].second);
    }
    out += "}";
  }
  out += ",\n  \"results\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + obs::json_quote(r.name);
    out += ", \"value\": " + obs::json_number(r.value);
    out += ", \"unit\": " + obs::json_quote(r.unit);
    for (const auto& [key, value] : r.extra) {
      out += ", " + obs::json_quote(key) + ": " + obs::json_number(value);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

void write_json_file(const std::string& path, const std::string& suite,
                     std::span<const BenchResult> results,
                     const BenchMeta& meta) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("bench_json: cannot open " + path);
  }
  auto stamped = provenance_meta();
  stamped.insert(stamped.end(), meta.begin(), meta.end());
  file << to_json(suite, results, stamped);
  if (!file) {
    throw std::runtime_error("bench_json: write failed for " + path);
  }
}

}  // namespace tpa::bench
