// Minimal JSON emitter for benchmark results.  Benchmarks accumulate
// BenchResult records (one primary value plus optional named extras) and
// write them as a single machine-readable document; the committed
// BENCH_kernels.json / BENCH_epoch.json artefacts and the CI perf-smoke job
// both consume this format.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

namespace tpa::bench {

struct BenchResult {
  std::string name;   // e.g. "sparse_dot/vectorized"
  double value = 0.0; // primary metric
  std::string unit;   // e.g. "ns_per_op"
  // Secondary metrics, emitted as additional numeric fields.
  std::vector<std::pair<std::string, double>> extra;
};

/// String-valued metadata emitted alongside the results.
using BenchMeta = std::vector<std::pair<std::string, std::string>>;

/// Serialises `results` as {"suite": ..., "meta": {...}, "results": [...]},
/// one result per line.  Strings and numbers render through obs/json.hpp:
/// doubles with enough digits to round-trip, NaN and inf as null, control
/// characters escaped.  The "meta" object is omitted when `meta` is empty.
std::string to_json(const std::string& suite,
                    std::span<const BenchResult> results,
                    const BenchMeta& meta = {});

/// Writes to_json(...) to `path`; throws std::runtime_error on I/O failure.
/// The meta object starts with the provenance every BENCH_*.json carries,
/// so a committed number is attributable to the build and host that
/// produced it: git SHA (with a "-dirty" suffix when tracked files
/// differed from HEAD at configure time), compiler, build type, kernel
/// backend and -march=native flag, std::thread::hardware_concurrency() and
/// util::usable_cpus().  The bench's own `meta` fields follow.
void write_json_file(const std::string& path, const std::string& suite,
                     std::span<const BenchResult> results,
                     const BenchMeta& meta = {});

}  // namespace tpa::bench
