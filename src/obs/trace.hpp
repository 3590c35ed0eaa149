// Low-overhead span tracer.
//
// Spans and instants are recorded into fixed-size per-thread ring buffers
// and exported on demand as Chrome trace-event JSON ("traceEvents"), which
// Perfetto / chrome://tracing load directly.  Overhead budget:
//
//   disabled — TraceSpan's constructor is one relaxed atomic load (the
//     enabled flag); nothing else runs.  This is cheap enough to leave in
//     every epoch-level phase permanently.
//   enabled  — two steady_clock reads per span (begin/end) plus one ring
//     slot store; no locks, no allocation after a thread's first event.
//
// A span is one "X" (complete) event recorded at destruction, so nesting is
// by containment and a span never occupies more than one ring slot.  When a
// ring wraps, the oldest events are overwritten and counted as dropped —
// tracing never blocks or grows without bound.
//
// Causal links ("flows"): trace_flow_begin/trace_flow_end record Chrome flow
// events ("s"/"f") carrying a caller-chosen 64-bit id.  A flow binds to the
// enclosing slice on its track (Perfetto matches by timestamp containment),
// so emitting the begin inside the producing span and the end inside the
// consuming span draws an arrow between them — the cluster drivers use this
// to link each worker's local_solve → delta push → master reduce → broadcast
// chain across tracks.  Ids only need to be unique per begin/end pair within
// one trace; matching is by (name, id).
//
// Timelines ("tracks"): by default events land on the recording OS thread's
// track.  A caller may pin events to a virtual track instead (the cluster
// driver gives the master and each simulated worker its own track, so the
// per-worker solve/reduce/broadcast timeline of a fault drill reads as a
// cluster whichever host thread ran each worker's local epochs).  Name
// tracks with set_track_name().
//
// Rings outlive their threads: when a tracing thread exits, its ring (and
// the events in it, which still export) passes to the next new tracing
// thread, which keeps appending under the same tid.  Memory is one ring
// per tracing thread alive at once, however many threads come and go.
//
// Enabling: set_trace_enabled(true) in code, or the TPA_TRACE environment
// variable — TPA_TRACE=1 enables recording; any other non-empty, non-zero
// value both enables recording and writes the Chrome trace to that path at
// process exit.  Tools expose --trace-out on top of this.
//
// Export contract: chrome_trace_json()/write_chrome_trace() are meant to run
// after the traced work quiesces (tools call them at the end of main).  An
// export racing with active recorders may observe a torn in-progress slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace tpa::obs {

/// Track sentinel: record on the calling OS thread's own track.
inline constexpr std::int32_t kCurrentThread = -1;
/// Arg sentinel: the event carries no numeric argument.
inline constexpr std::int64_t kNoArg = std::numeric_limits<std::int64_t>::min();

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool enabled) noexcept;

/// Microseconds since the process's trace epoch (monotonic).
double trace_now_us() noexcept;

/// Records a complete event ("X"): [ts_us, ts_us + dur_us) on `track`.
/// `name` must outlive the tracer (string literals).  No-op when disabled.
void trace_complete(const char* name, double ts_us, double dur_us,
                    std::int32_t track = kCurrentThread,
                    std::int64_t arg = kNoArg);

/// Records an instant event ("i") at now.  No-op when disabled.
void trace_instant(const char* name, std::int32_t track = kCurrentThread,
                   std::int64_t arg = kNoArg);

/// Records the producing ("s") half of a flow at now.  Emit inside the span
/// that produced the linked work so the arrow starts there.  No-op when
/// disabled.
void trace_flow_begin(const char* name, std::uint64_t flow_id,
                      std::int32_t track = kCurrentThread);

/// Records the consuming ("f", bp="e") half of a flow at now.  Emit inside
/// the span that consumed the linked work.  An end without a matching begin
/// (or vice versa, e.g. after a ring wrap) renders as a dangling arrow, not
/// an error.  No-op when disabled.
void trace_flow_end(const char* name, std::uint64_t flow_id,
                    std::int32_t track = kCurrentThread);

/// Names a virtual track (or an OS-thread track id) in the exported trace.
void set_track_name(std::int32_t track, const std::string& name);

/// Key/value pair exported in the trace's "otherData" section (and available
/// to report writers) — e.g. the linalg layer tags the active kernel
/// backend here.
void set_trace_metadata(const std::string& key, const std::string& value);
std::string trace_metadata(const std::string& key);

/// RAII span: samples the clock at construction, records one complete event
/// at destruction.  When tracing is disabled at construction the span is
/// fully disarmed (a later enable does not produce a half-open event).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::int32_t track = kCurrentThread,
                     std::int64_t arg = kNoArg) noexcept
      : name_(trace_enabled() ? name : nullptr),
        track_(track),
        arg_(arg),
        start_us_(name_ != nullptr ? trace_now_us() : 0.0) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (name_ != nullptr) {
      trace_complete(name_, start_us_, trace_now_us() - start_us_, track_,
                     arg_);
    }
  }

 private:
  const char* name_;
  std::int32_t track_;
  std::int64_t arg_;
  double start_us_;
};

/// Serialises every thread's surviving events (plus track names and
/// metadata) as a Chrome trace-event JSON document.
std::string chrome_trace_json();
/// Writes chrome_trace_json() to `path`; throws std::runtime_error on I/O
/// failure.
void write_chrome_trace(const std::string& path);

/// One surviving ring-buffer event, resolved for in-process consumers (the
/// obs::attribution analyzer): the name is copied out and kCurrentThread is
/// replaced by the recording thread's track id.
struct TraceRecord {
  std::string name;
  char phase = 'X';    // 'X' complete, 'i' instant, 's'/'f' flow begin/end
  double ts_us = 0.0;
  double dur_us = 0.0;  // complete events only
  std::int32_t track = 0;
  std::int64_t arg = kNoArg;
  std::uint64_t flow_id = 0;  // flow events only
};

/// Snapshot of every thread's surviving events, oldest first per thread.
/// Same quiescence contract as chrome_trace_json().
std::vector<TraceRecord> trace_records();

/// Snapshot of the names registered with set_track_name().
std::map<std::int32_t, std::string> trace_track_names();

/// Events recorded / overwritten-because-the-ring-wrapped since start (or
/// the last reset_trace()).
std::uint64_t trace_events_recorded() noexcept;
std::uint64_t trace_events_dropped() noexcept;

/// Clears every ring buffer (track names and metadata survive).  Test-only:
/// must not race with active recorders.
void reset_trace() noexcept;

}  // namespace tpa::obs
