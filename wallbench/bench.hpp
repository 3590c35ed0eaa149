// Shared declarations of the wall-clock benchmark harness.
//
// Every workload is timed from outside: the harness calls the public entry
// points of data, core, cluster, serve, linalg and obs, and in a traced run
// reads back the spans and counters those modules already record.  Nothing
// here adds instrumentation to the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wallbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;  // seeds the data generators and nothing else
  double seconds = 10.0;   // measurement window of one run
  bool trace = false;      // false: end-to-end metrics; true: per-layer
  bool tiny = false;       // self-test sizes (seconds-scale build check)
  /// Self-test fault injection: "model" perturbs a returned model before
  /// the checks, "prediction" perturbs one served prediction.  Empty in
  /// every measured run.
  std::string perturb;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics of the layers on the workload's
/// path (traced run), by name; their units live in BENCHMARK.json.  `info`
/// holds the exact guards and the per-kind figures (time_to_gap_s,
/// p99_ms, ...), printed for people.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few check messages
  std::map<std::string, double> metrics;
  std::vector<Metric> info;

  void fail(const std::string& message);
  void add(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, value, unit});
  }
};

Outcome run_training(const Options& options);
Outcome run_serving(const Options& options);

// ---- statistics and clocks (stats.cpp) ------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Linear-interpolation quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double sum(const std::vector<double>& values);
/// Mean, smallest and largest of `values`; 0 when empty.
double mean(const std::vector<double>& values);
double min_of(const std::vector<double>& values);
double max_of(const std::vector<double>& values);

/// Peak resident set size of this process, in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Heap bytes in use right now (glibc mallinfo2: arenas plus mmapped
/// chunks), in MB.  Unlike the peak RSS it does not depend on where the
/// allocator's transient peaks fell, so it repeats across data seeds.
double live_heap_mb();

/// Median wall time of `reps` calls of fn(), in seconds.
template <typename Fn>
double median_seconds(int reps, const Fn& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    times.push_back(seconds_since(start));
  }
  return median(std::move(times));
}

// ---- traced-run helpers (layers.cpp) --------------------------------------

/// Durations (ms) and argument of every surviving complete span, by name.
struct SpanTable {
  struct Span {
    double ms = 0.0;
    std::int64_t arg = 0;
  };
  std::map<std::string, std::vector<Span>> by_name;

  /// Complete spans of obs::trace_records() (instants and flows skipped).
  static SpanTable collect();
  void merge(const SpanTable& other);
  const std::vector<Span>& spans(const std::string& name) const;
  std::vector<double> durations_ms(const std::string& name) const;
  double total_ms(const std::string& name) const;
};

/// Resets the tracer and the metrics registry, then enables tracing.
void begin_traced_section();
/// Disables tracing; returns obs::trace_events_dropped().
std::uint64_t end_traced_section();

/// Counter value from obs::metrics(), 0 when never registered.
std::uint64_t counter_value(const std::string& name);

/// Prevents the compiler from discarding a timed kernel's result.
void keep(double value);

}  // namespace wallbench
