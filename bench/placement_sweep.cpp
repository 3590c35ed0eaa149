// Placement sweep: uniform vs optimized coordinate placement on an
// imbalanced heterogeneous fleet (default: 4 Titan Xs + 4 four-thread CPU
// pools over PCIe).  Under the uniform split every round waits on the CPU
// workers; the planner sizes each slot's share so every device finishes its
// local passes by the smallest common deadline (the makespan split), and
// keeps that split when it prices the round cheaper.  Three arms isolate the
// gains:
//
//   uniform            equal split, no overlap (the legacy behaviour)
//   optimized          makespan-split sizes, no overlap
//   optimized+overlap  makespan-split sizes, master ingests deltas as they
//                      arrive
//
// Each arm also runs the cost-model drift auditor: the plan's predicted
// per-term round decomposition vs the engine's measured round attribution
// (DESIGN.md §15).  Emits BENCH_placement.json and with --check asserts
// (a) the optimized round is never slower than uniform, (b) the simulated
// time-to-gap speedup clears --min-speedup, and (c) per-term drift stays
// under --max-drift (CI gate).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"

#include "cluster/dist_solver.hpp"
#include "cluster/placement/drift.hpp"
#include "cluster/placement/fleet.hpp"

namespace {

using namespace tpa;

struct Arm {
  const char* name;
  cluster::placement::PlacementMode mode;
  bool overlap;
};

struct ArmResult {
  double time_to_gap = 0.0;
  bool reached = false;
  double round_seconds = 0.0;     // simulated, from the last breakdown
  double predicted_round = 0.0;   // cost-model price of the chosen sizes
  double final_gap = 0.0;
  int epochs = 0;
  double max_drift = 0.0;  // worst per-term predicted-vs-measured error
};

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser parser("placement_sweep",
                           "uniform vs optimized placement on a mixed fleet");
    bench::add_common_options(parser);
    parser.add_option("fleet", "fleet spec (see --help in tpascd_train)",
                      "4xtitanx,4xcpu:4");
    parser.add_option("network", "10gbe | 100gbe | pcie", "pcie");
    parser.add_option("eps", "target duality gap", "3e-3");
    parser.add_option("out-dir", "directory for BENCH_placement.json", ".");
    parser.add_option("min-speedup",
                      "--check fails below this time-to-gap speedup", "1.3");
    parser.add_option("max-drift",
                      "--check fails above this per-term cost-model drift",
                      "0.15");
    parser.add_flag("check", "exit non-zero if the optimizer loses to uniform");
    if (!parser.parse(argc, argv)) return 1;

    auto options = bench::read_common_options(parser);
    options.max_epochs = static_cast<int>(parser.get_int("epochs", 200));
    const double eps = parser.get_double("eps", 3e-3);
    const auto fleet =
        cluster::placement::parse_fleet_spec(
            parser.get_string("fleet", "4xtitanx,4xcpu:4"));
    const auto network =
        cluster::NetworkModel::preset(parser.get_string("network", "pcie"));

    const auto dataset = bench::make_webspam(options);
    std::printf("fleet: %s, network %s, eps %.1e\n",
                cluster::placement::fleet_summary(fleet).c_str(),
                network.name.c_str(), eps);

    const Arm arms[] = {
        {"uniform", cluster::placement::PlacementMode::kUniform, false},
        {"optimized", cluster::placement::PlacementMode::kOptimize, false},
        {"optimized+overlap", cluster::placement::PlacementMode::kOptimize,
         true},
    };

    util::Table table({"arm", "round (ms)", "predicted (ms)",
                       "time-to-gap (s)", "final gap", "max drift"});
    std::vector<ArmResult> results;
    std::vector<cluster::placement::DriftReport> drift_reports;
    for (const auto& arm : arms) {
      cluster::DistConfig config;
      config.formulation = core::Formulation::kDual;
      config.num_workers = static_cast<int>(fleet.size());
      config.aggregation = cluster::AggregationMode::kAveraging;
      config.network = network;
      config.lambda = options.lambda;
      config.seed = options.seed;
      config.fleet = fleet;
      config.placement = arm.mode;
      config.comm_overlap = arm.overlap;

      cluster::DistributedSolver solver(dataset, config);
      core::RunOptions run_options;
      run_options.max_epochs = options.max_epochs;
      run_options.record_interval = 1;
      run_options.target_gap = eps;
      const auto trace = cluster::run_distributed(solver, run_options);

      ArmResult result;
      const auto [seconds, reached] = bench::time_to_gap(trace, eps);
      result.time_to_gap = seconds;
      result.reached = reached;
      result.round_seconds = solver.last_attribution().total();
      cluster::placement::DriftReport drift;
      if (const auto* plan = solver.placement_result()) {
        result.predicted_round = plan->predicted.total();
        drift = cluster::placement::audit_placement_drift(
            plan->predicted, solver.attribution_totals(),
            solver.attribution_rounds());
        result.max_drift = drift.max_rel_error;
      }
      drift_reports.push_back(std::move(drift));
      result.final_gap =
          trace.points().empty() ? 0.0 : trace.points().back().gap;
      result.epochs = static_cast<int>(trace.points().size());
      results.push_back(result);

      table.begin_row();
      table.add_cell(arm.name);
      table.add_cell(util::Table::format_number(result.round_seconds * 1e3));
      table.add_cell(util::Table::format_number(result.predicted_round * 1e3));
      table.add_cell(reached ? util::Table::format_number(seconds)
                             : "not reached");
      table.add_cell(util::Table::format_number(result.final_gap));
      table.add_cell(util::Table::format_number(result.max_drift));
    }
    bench::emit(table, options);
    for (std::size_t i = 0; i < drift_reports.size(); ++i) {
      std::printf("\n[%s] ", arms[i].name);
      cluster::placement::print_drift_report(std::cout, drift_reports[i]);
    }
    // The headline arm's drift lands in the metrics registry.
    cluster::placement::record_drift_obs(drift_reports.back());

    const auto& uniform = results[0];
    const auto& best = results[2];  // optimized+overlap is the headline arm
    const double round_speedup =
        best.round_seconds > 0 ? uniform.round_seconds / best.round_seconds
                               : 0.0;
    const double gap_speedup =
        (uniform.reached && best.reached && best.time_to_gap > 0)
            ? uniform.time_to_gap / best.time_to_gap
            : 0.0;
    bench::shape_check("optimized placement round-time speedup over uniform",
                       round_speedup, ">=1.3x");
    bench::shape_check("optimized placement time-to-gap speedup over uniform",
                       gap_speedup, ">=1.3x");

    const bench::BenchMeta meta = {
        {"fleet", cluster::placement::fleet_summary(fleet)},
        {"network", network.name},
    };
    std::vector<bench::BenchResult> records;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      records.push_back(
          {std::string("time_to_gap/") + arms[i].name, r.time_to_gap,
           "sim_seconds",
           {{"reached", r.reached ? 1.0 : 0.0},
            {"round_seconds", r.round_seconds},
            {"predicted_round_seconds", r.predicted_round},
            {"final_gap", r.final_gap},
            {"epochs", static_cast<double>(r.epochs)},
            {"max_drift", r.max_drift}}});
    }
    records.push_back({"speedup/round_time", round_speedup, "x", {}});
    records.push_back(
        {"speedup/time_to_gap", gap_speedup, "x", {{"eps", eps}}});
    const auto out_dir = parser.get_string("out-dir", ".");
    bench::write_json_file(out_dir + "/BENCH_placement.json", "placement",
                           records, meta);
    std::printf("wrote %s/BENCH_placement.json\n", out_dir.c_str());

    if (parser.get_bool("check")) {
      const double min_speedup = parser.get_double("min-speedup", 1.3);
      bool ok = true;
      if (!uniform.reached || !best.reached) {
        std::printf("CHECK FAILED: an arm never reached eps %.1e\n", eps);
        ok = false;
      }
      if (best.round_seconds > uniform.round_seconds * (1 + 1e-9)) {
        std::printf("CHECK FAILED: optimized round %.4f ms > uniform %.4f ms\n",
                    best.round_seconds * 1e3, uniform.round_seconds * 1e3);
        ok = false;
      }
      if (gap_speedup < min_speedup) {
        std::printf("CHECK FAILED: time-to-gap speedup %.2fx < %.2fx\n",
                    gap_speedup, min_speedup);
        ok = false;
      }
      const double max_drift = parser.get_double("max-drift", 0.15);
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].max_drift > max_drift) {
          std::printf(
              "CHECK FAILED: [%s] cost-model drift %.3f > %.3f — the "
              "placement model has diverged from the round engine\n",
              arms[i].name, results[i].max_drift, max_drift);
          ok = false;
        }
      }
      if (!ok) return 2;
      std::printf(
          "placement checks passed (speedup %.2fx >= %.2fx, drift <= %.3f)\n",
          gap_speedup, min_speedup, max_drift);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
