#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

#include "bench.hpp"

namespace wallbench {

SpanTable SpanTable::collect() {
  SpanTable table;
  for (const auto& record : tpa::obs::trace_records()) {
    if (record.phase != 'X') continue;
    table.by_name[record.name].push_back(
        {record.dur_us * 1e-3,
         record.arg == tpa::obs::kNoArg ? 0 : record.arg});
  }
  return table;
}

void SpanTable::merge(const SpanTable& other) {
  for (const auto& [name, spans] : other.by_name) {
    auto& mine = by_name[name];
    mine.insert(mine.end(), spans.begin(), spans.end());
  }
}

const std::vector<SpanTable::Span>& SpanTable::spans(
    const std::string& name) const {
  static const std::vector<Span> kNone;
  const auto found = by_name.find(name);
  return found == by_name.end() ? kNone : found->second;
}

std::vector<double> SpanTable::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& span : spans(name)) out.push_back(span.ms);
  return out;
}

double SpanTable::total_ms(const std::string& name) const {
  return sum(durations_ms(name));
}

void begin_traced_section() {
  tpa::obs::reset_trace();
  tpa::obs::metrics().reset();
  tpa::obs::set_trace_enabled(true);
}

std::uint64_t end_traced_section() {
  tpa::obs::set_trace_enabled(false);
  return tpa::obs::trace_events_dropped();
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& [counter, value] : tpa::obs::metrics().snapshot().counters) {
    if (counter == name) return value;
  }
  return 0;
}

namespace {
volatile double g_sink = 0.0;
}  // namespace

void keep(double value) { g_sink = value; }

}  // namespace wallbench
