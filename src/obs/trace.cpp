#include "obs/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/json.hpp"

namespace tpa::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

// Trivially default-constructible, so a new ring's slots stay unwritten.
struct TraceEvent {
  const char* name;
  double ts_us;
  double dur_us;          // complete events only
  std::int32_t track;
  std::int64_t arg;
  std::uint64_t flow_id;  // flow events only
  char phase;             // 'X' complete, 'i' instant, 's'/'f' flow halves
};

/// One ring per live recording thread.  Only the owning thread writes;
/// exporters read `recorded` with acquire so every slot published before it
/// is visible.  kCapacity events ≈ 1.3 MB of address space, of which only
/// the slots written so far are touched (reset_trace() rewinds to the
/// start), paid once per tracing thread alive at a time: a ring outlives
/// its thread (its events still export) and the next new tracing thread
/// takes it over, tid and all.
struct ThreadBuffer {
  static constexpr std::size_t kCapacity = std::size_t{1} << 15;

  explicit ThreadBuffer(int tid_in)
      : events(std::make_unique_for_overwrite<TraceEvent[]>(kCapacity)),
        tid(tid_in) {}

  void record(const TraceEvent& event) noexcept {
    const std::uint64_t n = recorded.load(std::memory_order_relaxed);
    events[static_cast<std::size_t>(n % kCapacity)] = event;
    recorded.store(n + 1, std::memory_order_release);
  }

  std::unique_ptr<TraceEvent[]> events;
  std::atomic<std::uint64_t> recorded{0};
  int tid;
};

struct TraceState {
  Clock::time_point epoch = Clock::now();
  std::mutex mutex;  // guards buffers growth, free rings, names, metadata
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<ThreadBuffer*> free_buffers;  // rings of exited threads
  std::map<std::int32_t, std::string> track_names;
  std::map<std::string, std::string> metadata;
};

TraceState& state() {
  static TraceState s;
  return s;
}

// The hot path reads the plain pointer; the owner exists only to hand the
// ring back when its thread exits.
thread_local ThreadBuffer* tl_buffer = nullptr;

struct BufferOwner {
  ThreadBuffer* buffer = nullptr;

  ~BufferOwner() {
    tl_buffer = nullptr;
    if (buffer == nullptr) return;
    auto& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.free_buffers.push_back(buffer);
  }
};
thread_local BufferOwner tl_owner;

ThreadBuffer& local_buffer() {
  if (tl_buffer == nullptr) {
    auto& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.free_buffers.empty()) {
      s.buffers.push_back(std::make_unique<ThreadBuffer>(
          static_cast<int>(s.buffers.size())));
      tl_buffer = s.buffers.back().get();
    } else {
      tl_buffer = s.free_buffers.back();
      s.free_buffers.pop_back();
    }
    tl_owner.buffer = tl_buffer;
  }
  return *tl_buffer;
}

std::string g_atexit_path;

/// TPA_TRACE environment hook: "1" enables recording; any other non-empty,
/// non-"0" value additionally writes the Chrome trace there at exit.  The
/// TraceState singleton is forced into existence *before* std::atexit so its
/// destructor runs after the exit handler (LIFO teardown).
struct EnvInit {
  EnvInit() {
    const char* env = std::getenv("TPA_TRACE");
    if (env == nullptr || env[0] == '\0' || std::strcmp(env, "0") == 0) {
      return;
    }
    (void)state();
    detail::g_trace_enabled.store(true, std::memory_order_relaxed);
    if (std::strcmp(env, "1") != 0) {
      g_atexit_path = env;
      std::atexit([] { write_chrome_trace(g_atexit_path); });
    }
  }
};
const EnvInit g_env_init;

// Callers hold state().mutex (or are otherwise sure `buffers` is not
// growing concurrently).
std::uint64_t dropped_unlocked(const TraceState& s) noexcept {
  std::uint64_t dropped = 0;
  for (const auto& buffer : s.buffers) {
    const std::uint64_t n = buffer->recorded.load(std::memory_order_acquire);
    if (n > ThreadBuffer::kCapacity) dropped += n - ThreadBuffer::kCapacity;
  }
  return dropped;
}

void append_event_json(std::string& out, const TraceEvent& event, int tid) {
  const char phase_str[2] = {event.phase, '\0'};
  JsonObject object;
  object.field_str("name", event.name);
  if (event.phase == 's' || event.phase == 'f') {
    // Chrome flow events match on (cat, name, id); "bp":"e" binds the finish
    // to its enclosing slice instead of the next one.
    object.field_str("cat", "flow").field_str("ph", phase_str);
    if (event.phase == 'f') object.field_str("bp", "e");
    object.field_num("ts", event.ts_us).field_uint("id", event.flow_id);
  } else {
    object.field_str("ph", phase_str).field_num("ts", event.ts_us);
    if (event.phase == 'X') {
      object.field_num("dur", event.dur_us);
    } else {
      object.field_str("s", "t");  // instant scoped to its thread/track
    }
  }
  object.field_int("pid", 1).field_int(
      "tid", event.track == kCurrentThread ? tid : event.track);
  if (event.arg != kNoArg) {
    object.field_raw("args",
                     JsonObject().field_int("v", event.arg).str());
  }
  out += object.str();
}

}  // namespace

void set_trace_enabled(bool enabled) noexcept {
  detail::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

double trace_now_us() noexcept {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   state().epoch)
      .count();
}

void trace_complete(const char* name, double ts_us, double dur_us,
                    std::int32_t track, std::int64_t arg) {
  if (!trace_enabled()) return;
  local_buffer().record({.name = name,
                         .ts_us = ts_us,
                         .dur_us = dur_us < 0.0 ? 0.0 : dur_us,
                         .track = track,
                         .arg = arg,
                         .flow_id = 0,
                         .phase = 'X'});
}

void trace_instant(const char* name, std::int32_t track, std::int64_t arg) {
  if (!trace_enabled()) return;
  local_buffer().record({.name = name,
                         .ts_us = trace_now_us(),
                         .dur_us = 0.0,
                         .track = track,
                         .arg = arg,
                         .flow_id = 0,
                         .phase = 'i'});
}

namespace {

void record_flow(const char* name, std::uint64_t flow_id, std::int32_t track,
                 char phase) {
  local_buffer().record({.name = name,
                         .ts_us = trace_now_us(),
                         .dur_us = 0.0,
                         .track = track,
                         .arg = kNoArg,
                         .flow_id = flow_id,
                         .phase = phase});
}

}  // namespace

void trace_flow_begin(const char* name, std::uint64_t flow_id,
                      std::int32_t track) {
  if (!trace_enabled()) return;
  record_flow(name, flow_id, track, 's');
}

void trace_flow_end(const char* name, std::uint64_t flow_id,
                    std::int32_t track) {
  if (!trace_enabled()) return;
  record_flow(name, flow_id, track, 'f');
}

void set_track_name(std::int32_t track, const std::string& name) {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.track_names[track] = name;
}

void set_trace_metadata(const std::string& key, const std::string& value) {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.metadata[key] = value;
}

std::string trace_metadata(const std::string& key) {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.metadata.find(key);
  return it == s.metadata.end() ? std::string() : it->second;
}

std::string chrome_trace_json() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);

  std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": ";
  JsonObject metadata;
  for (const auto& [key, value] : s.metadata) {
    metadata.field_str(key, value);
  }
  metadata.field_uint("dropped_events", dropped_unlocked(s));
  out += metadata.str();
  out += ", \"traceEvents\": [";

  bool first = true;
  const auto separator = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };

  for (const auto& [track, name] : s.track_names) {
    separator();
    out += JsonObject()
               .field_str("name", "thread_name")
               .field_str("ph", "M")
               .field_int("pid", 1)
               .field_int("tid", track)
               .field_raw("args",
                          JsonObject().field_str("name", name).str())
               .str();
  }
  for (const auto& buffer : s.buffers) {
    const std::uint64_t n = buffer->recorded.load(std::memory_order_acquire);
    const std::size_t kept =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            n, ThreadBuffer::kCapacity));
    // Oldest surviving event first: a wrapped ring starts at n % capacity.
    const std::size_t start =
        n <= ThreadBuffer::kCapacity
            ? 0
            : static_cast<std::size_t>(n % ThreadBuffer::kCapacity);
    for (std::size_t i = 0; i < kept; ++i) {
      separator();
      append_event_json(
          out, buffer->events[(start + i) % ThreadBuffer::kCapacity],
          buffer->tid);
    }
  }
  out += "\n]}\n";
  return out;
}

void write_chrome_trace(const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("trace: cannot open " + path);
  }
  file << chrome_trace_json();
  if (!file) {
    throw std::runtime_error("trace: write failed for " + path);
  }
}

std::vector<TraceRecord> trace_records() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<TraceRecord> records;
  for (const auto& buffer : s.buffers) {
    const std::uint64_t n = buffer->recorded.load(std::memory_order_acquire);
    const std::size_t kept =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            n, ThreadBuffer::kCapacity));
    const std::size_t start =
        n <= ThreadBuffer::kCapacity
            ? 0
            : static_cast<std::size_t>(n % ThreadBuffer::kCapacity);
    for (std::size_t i = 0; i < kept; ++i) {
      const TraceEvent& event =
          buffer->events[(start + i) % ThreadBuffer::kCapacity];
      TraceRecord record;
      record.name = event.name;
      record.phase = event.phase;
      record.ts_us = event.ts_us;
      record.dur_us = event.dur_us;
      record.track =
          event.track == kCurrentThread ? buffer->tid : event.track;
      record.arg = event.arg;
      record.flow_id = event.flow_id;
      records.push_back(std::move(record));
    }
  }
  return records;
}

std::map<std::int32_t, std::string> trace_track_names() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.track_names;
}

std::uint64_t trace_events_recorded() noexcept {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::uint64_t total = 0;
  for (const auto& buffer : s.buffers) {
    total += buffer->recorded.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t trace_events_dropped() noexcept {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return dropped_unlocked(s);
}

void reset_trace() noexcept {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& buffer : s.buffers) {
    buffer->recorded.store(0, std::memory_order_relaxed);
  }
}

}  // namespace tpa::obs
