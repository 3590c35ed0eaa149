// tpascd_traceview — offline "where did the round go?" analyzer.
//
// Reads the Chrome trace (--trace-out *.json) and/or the JSONL run report
// (--metrics-out) a training run wrote and answers the attribution
// questions without opening Perfetto:
//
//   * per-round attribution table (compute / host / pcie / network /
//     straggler wait / stale overhead) with the residual against the round
//     envelope — the sum-to-wall-time invariant, checked offline;
//   * per-worker track utilization across the trace window;
//   * the top-N critical-path component slices;
//   * causal flow summary (delta/model/pull/push arrows, unmatched halves);
//   * --diff runA.jsonl runB.jsonl: metric-by-metric comparison of two run
//     reports (round.attr.*, placement.drift.*, cluster.event.*, ...).
//
// With --check it exits non-zero when the worst round residual exceeds
// --max-residual (default 1%) or, given --max-drift > 0 and a run report,
// when placement.drift.max_rel_error exceeds it — the CI attribution gate.
//
// Examples:
//   tpascd_traceview --trace drill_trace.json --metrics drill_metrics.jsonl
//   tpascd_traceview --trace drill_trace.json --check --max-residual 0.01
//   tpascd_traceview --diff baseline_metrics.jsonl candidate_metrics.jsonl
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/json_parse.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace tpa;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Everything we pull back out of one exported Chrome trace.
struct LoadedTrace {
  std::vector<obs::TraceRecord> records;  // 'X' and 'i' events
  std::map<std::int32_t, std::string> track_names;
  std::uint64_t dropped_events = 0;
  std::uint64_t flow_begins = 0;
  std::uint64_t flow_ends = 0;
  std::uint64_t unmatched_flows = 0;  // begin/end halves with no partner
};

/// Re-parses an exported Chrome trace back into TraceRecords — the inverse
/// of chrome_trace_json(), so analyze_attribution() runs on files exactly as
/// it runs in-process.
LoadedTrace load_trace(const std::string& path) {
  const auto root = obs::parse_json(read_file(path));
  const auto* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error(path + ": no traceEvents array — not a Chrome "
                             "trace (--trace wants the *.json trace-out)");
  }
  LoadedTrace trace;
  if (const auto* other = root.find("otherData")) {
    trace.dropped_events =
        static_cast<std::uint64_t>(other->num_or("dropped_events", 0.0));
  }
  // Flow halves are matched by (name, id); a surviving begin with no end (or
  // vice versa) means the partner span was dropped or the worker crashed.
  std::map<std::pair<std::string, std::uint64_t>, int> flow_balance;
  for (const auto& event : events->array) {
    const auto phase = event.str_or("ph", "");
    const auto name = event.str_or("name", "");
    if (phase == "M") {
      if (name == "thread_name") {
        const auto* args = event.find("args");
        if (args != nullptr) {
          trace.track_names[static_cast<std::int32_t>(
              event.num_or("tid", 0.0))] = args->str_or("name", "");
        }
      }
      continue;
    }
    if (phase == "s" || phase == "f") {
      const auto id = static_cast<std::uint64_t>(event.num_or("id", 0.0));
      flow_balance[{name, id}] += phase == "s" ? 1 : -1;
      (phase == "s" ? trace.flow_begins : trace.flow_ends) += 1;
      continue;
    }
    if (phase != "X" && phase != "i") continue;
    obs::TraceRecord record;
    record.name = name;
    record.phase = phase[0];
    record.ts_us = event.num_or("ts", 0.0);
    record.dur_us = event.num_or("dur", 0.0);
    record.track = static_cast<std::int32_t>(event.num_or("tid", 0.0));
    if (const auto* args = event.find("args")) {
      record.arg = static_cast<std::int64_t>(
          args->num_or("v", static_cast<double>(obs::kNoArg)));
    }
    trace.records.push_back(std::move(record));
  }
  for (const auto& [key, balance] : flow_balance) {
    trace.unmatched_flows +=
        static_cast<std::uint64_t>(balance < 0 ? -balance : balance);
  }
  return trace;
}

std::string track_label(const std::map<std::int32_t, std::string>& names,
                        std::int32_t track) {
  const auto it = names.find(track);
  return it != names.end() ? it->second : "track " + std::to_string(track);
}

void print_attribution_tables(const LoadedTrace& trace,
                              const obs::AttributionReport& report,
                              int top_n) {
  std::printf("%zu spans on %zu tracks, %llu dropped at record time\n",
              trace.records.size(), trace.track_names.size(),
              static_cast<unsigned long long>(trace.dropped_events));
  std::printf(
      "flows: %llu begins, %llu ends, %llu unmatched halves%s\n",
      static_cast<unsigned long long>(trace.flow_begins),
      static_cast<unsigned long long>(trace.flow_ends),
      static_cast<unsigned long long>(trace.unmatched_flows),
      trace.unmatched_flows > 0
          ? " (crashed workers / dropped deltas leave dangling arrows)"
          : "");

  if (report.rounds.empty()) {
    std::printf("no attr/round spans — was the run traced with a cluster "
                "solver?\n");
    return;
  }

  std::printf("\nper-round attribution (simulated ms; residual = "
              "|sum - round| / round)\n");
  util::Table rounds({"track", "round", "total", "compute", "host", "pcie",
                      "network", "straggler", "stale", "residual"});
  const auto add_row = [&](const obs::AttributionRow& row,
                           const std::string& round_label) {
    rounds.begin_row();
    rounds.add_cell(track_label(trace.track_names, row.track));
    rounds.add_cell(round_label);
    rounds.add_number(row.total_us * 1e-3);
    for (int i = 0; i < obs::kAttributionComponents; ++i) {
      rounds.add_number(row.components_us[i] * 1e-3);
    }
    rounds.add_cell(util::Table::format_number(row.residual_fraction()));
  };
  for (const auto& row : report.rounds) {
    add_row(row, std::to_string(row.round));
  }
  for (const auto& row : report.track_totals) {
    add_row(row, "all");
  }
  rounds.print(std::cout);
  std::printf("max round residual: %.5f\n", report.max_residual_fraction);

  if (!report.utilization.empty()) {
    std::printf("\nper-worker utilization (wall-clock trace window)\n");
    util::Table util_table({"track", "spans", "busy ms", "window ms",
                            "utilization"});
    for (const auto& u : report.utilization) {
      util_table.begin_row();
      util_table.add_cell(u.name.empty()
                              ? track_label(trace.track_names, u.track)
                              : u.name);
      util_table.add_integer(static_cast<std::int64_t>(u.spans));
      util_table.add_number(u.busy_us * 1e-3);
      util_table.add_number(u.window_us * 1e-3);
      util_table.add_number(u.utilization());
    }
    util_table.print(std::cout);
  }

  if (!report.critical.empty()) {
    std::printf("\ntop %d critical-path slices\n", top_n);
    util::Table critical({"rank", "component", "round", "track", "ms"});
    for (std::size_t i = 0; i < report.critical.size(); ++i) {
      const auto& span = report.critical[i];
      critical.begin_row();
      critical.add_integer(static_cast<std::int64_t>(i + 1));
      critical.add_cell(span.component);
      critical.add_integer(span.round);
      critical.add_cell(track_label(trace.track_names, span.track));
      critical.add_number(span.dur_us * 1e-3);
    }
    critical.print(std::cout);
  }
}

/// Scalar metrics from a JSONL run report: counters and gauges by name
/// (histograms are summarised by their p99).
std::map<std::string, double> load_metrics(const std::string& path) {
  std::map<std::string, double> values;
  std::istringstream in(read_file(path));
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    obs::JsonValue value;
    try {
      value = obs::parse_json(line);
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) + ": " +
                               e.what());
    }
    const auto type = value.str_or("type", "");
    const auto name = value.str_or("name", "");
    if (name.empty()) continue;
    if (type == "counter" || type == "gauge") {
      values[name] = value.num_or("value", 0.0);
    } else if (type == "histogram") {
      values[name + ".p99"] = value.num_or("p99", 0.0);
    }
  }
  if (values.empty()) {
    throw std::runtime_error(path + ": no counter/gauge lines — not a "
                             "--metrics-out run report?");
  }
  return values;
}

int run_diff(const std::string& path_a, const std::string& path_b) {
  const auto a = load_metrics(path_a);
  const auto b = load_metrics(path_b);
  std::printf("diff: A = %s (%zu metrics), B = %s (%zu metrics)\n",
              path_a.c_str(), a.size(), path_b.c_str(), b.size());

  std::set<std::string> names;
  for (const auto& [name, value] : a) names.insert(name);
  for (const auto& [name, value] : b) names.insert(name);

  util::Table table({"metric", "A", "B", "delta"});
  std::size_t changed = 0;
  for (const auto& name : names) {
    const auto in_a = a.find(name);
    const auto in_b = b.find(name);
    table.begin_row();
    table.add_cell(name);
    if (in_a == a.end()) {
      table.add_cell("-");
      table.add_number(in_b->second);
      table.add_cell("only in B");
      ++changed;
      continue;
    }
    if (in_b == b.end()) {
      table.add_number(in_a->second);
      table.add_cell("-");
      table.add_cell("only in A");
      ++changed;
      continue;
    }
    table.add_number(in_a->second);
    table.add_number(in_b->second);
    table.add_number(in_b->second - in_a->second);
    if (in_a->second != in_b->second) ++changed;
  }
  table.print(std::cout);
  std::printf("%zu of %zu metrics differ\n", changed, names.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("tpascd_traceview",
                         "attribution / critical-path analyzer for tpascd "
                         "Chrome traces and run reports");
  parser.add_option("trace", "Chrome trace written by --trace-out *.json");
  parser.add_option("metrics", "JSONL run report written by --metrics-out");
  parser.add_option("top", "critical-path slices to show", "10");
  parser.add_flag("check", "exit non-zero when a gate below fails");
  parser.add_option("max-residual",
                    "--check fails when a round's |sum - total| / total "
                    "exceeds this",
                    "0.01");
  parser.add_option("max-drift",
                    "--check fails when placement.drift.max_rel_error in "
                    "--metrics exceeds this (0 = don't check)",
                    "0");
  parser.add_flag("diff",
                  "compare two run reports given as positional arguments");
  if (!parser.parse(argc, argv)) return 1;

  try {
    if (parser.get_bool("diff")) {
      const auto& paths = parser.positional();
      if (paths.size() != 2) {
        std::fprintf(stderr,
                     "error: --diff wants exactly two run reports\n%s",
                     parser.usage().c_str());
        return 1;
      }
      return run_diff(paths[0], paths[1]);
    }

    if (!parser.has("trace")) {
      std::fprintf(stderr, "error: --trace (or --diff A B) is required\n%s",
                   parser.usage().c_str());
      return 1;
    }
    const int top_n = std::max(1, parser.get_int<int>("top", 10));
    const auto trace = load_trace(parser.get_string("trace", ""));
    const auto report =
        obs::analyze_attribution(trace.records, trace.track_names, top_n);
    print_attribution_tables(trace, report, top_n);

    std::map<std::string, double> metric_values;
    if (parser.has("metrics")) {
      metric_values = load_metrics(parser.get_string("metrics", ""));
      const auto print_if = [&](const char* name) {
        const auto it = metric_values.find(name);
        if (it != metric_values.end()) {
          std::printf("  %s = %.6g\n", name, it->second);
        }
      };
      std::printf("\nrun report gauges:\n");
      print_if("round.attr.total_seconds");
      print_if("round.attr.rounds");
      print_if("placement.drift.max_rel_error");
      print_if("placement.drift.rounds");
    }

    if (parser.get_bool("check")) {
      const double max_residual = parser.get_double("max-residual", 0.01);
      const double max_drift = parser.get_double("max-drift", 0.0);
      bool ok = true;
      if (report.rounds.empty()) {
        std::printf("CHECK FAILED: no attribution rounds in the trace\n");
        ok = false;
      }
      if (report.max_residual_fraction > max_residual) {
        std::printf(
            "CHECK FAILED: attribution residual %.5f > %.5f — components "
            "no longer sum to the round wall-time\n",
            report.max_residual_fraction, max_residual);
        ok = false;
      }
      if (max_drift > 0.0) {
        const auto it = metric_values.find("placement.drift.max_rel_error");
        if (it == metric_values.end()) {
          std::printf("CHECK FAILED: --max-drift set but --metrics has no "
                      "placement.drift.max_rel_error gauge\n");
          ok = false;
        } else if (it->second > max_drift) {
          std::printf("CHECK FAILED: cost-model drift %.4f > %.4f\n",
                      it->second, max_drift);
          ok = false;
        }
      }
      if (!ok) return 2;
      std::printf("traceview checks passed (residual %.5f <= %.5f)\n",
                  report.max_residual_fraction, max_residual);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
