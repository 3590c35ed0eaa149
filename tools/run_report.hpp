// Shared --metrics-out support for the CLI tools: a JSONL "run report" that
// makes one run self-describing — a meta line (build provenance + kernel
// backend + tracer totals) followed by whatever the tool appends (trace
// points, cluster events, the metric snapshot).  The tools commit the
// report through sparse::commit_file, so a refused write fails the run and
// keeps the previous report.  bench/perf_smoke embeds the
// same metadata in its BENCH_*.json "meta" object.
#pragma once

#include <atomic>
#include <cstdio>
#include <string>

#include "linalg/kernels.hpp"
#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace tpa::tools {

/// The {"type":"meta",...} first line of every run report.
inline std::string run_meta_json(const std::string& tool) {
  const auto info = obs::build_info();
  return obs::JsonObject()
      .field_str("type", "meta")
      .field_str("tool", tool)
      .field_str("git_sha", info.git_sha)
      .field_str("compiler", info.compiler)
      .field_str("build_type", info.build_type)
      .field_str("kernel_backend",
                 linalg::kernel_backend_name(linalg::kernel_backend()))
      .field_bool("kernel_native", linalg::kernel_native_build())
      .field_bool("trace_enabled", obs::trace_enabled())
      .field_uint("trace_events_recorded", obs::trace_events_recorded())
      .field_uint("trace_events_dropped", obs::trace_events_dropped())
      .str();
}

/// Loudly surfaces ring-buffer overflow: a truncated trace silently hides
/// the *oldest* spans, which is exactly where a root cause tends to live.
/// Safe to call repeatedly — long-running tools (tpascd_serve's replay loop)
/// can wrap the ring many times over, so the warning is rate-limited: it
/// fires when the cumulative dropped count first becomes nonzero and then
/// only each time it doubles past the last warning, instead of once per
/// wrap.  Returns the cumulative dropped count so callers can surface it in
/// their stats lines.
inline std::uint64_t warn_if_trace_dropped(const std::string& tool) {
  static std::atomic<std::uint64_t> next_warn_at{1};
  const auto dropped = obs::trace_events_dropped();
  auto threshold = next_warn_at.load(std::memory_order_relaxed);
  if (dropped < threshold) return dropped;
  // One printer per threshold crossing, even if called concurrently.
  if (!next_warn_at.compare_exchange_strong(threshold, dropped * 2,
                                            std::memory_order_relaxed)) {
    return dropped;
  }
  std::fprintf(stderr,
               "%s: warning: trace ring overflowed — %llu oldest spans were "
               "overwritten; the Chrome trace and attribution are incomplete "
               "(trace fewer rounds or raise the per-thread ring capacity)\n",
               tool.c_str(), static_cast<unsigned long long>(dropped));
  return dropped;
}

}  // namespace tpa::tools
