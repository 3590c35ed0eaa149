// Ablation: the bandwidth-lean hot path (DESIGN.md §16).
//
// Two independent byte diets attack the two hottest channels of distributed
// TPA-SCD: fp16 *storage* for the shared vector (the per-nnz gather/scatter
// traffic of every local sweep, arithmetic still fp32-widened with fp64
// accumulation) and fp16-quantized *delta exchange* (the worker → master
// reduce leg, one fp32 scale per 256 entries, transit checksum over the
// encoded image).  This bench sweeps the 2x2 grid
//
//   fp32/dense        the historical path (baseline)
//   fp32/compressed   quantized deltas only
//   fp16/dense        half-storage shared vectors only
//   fp16/compressed   both diets (the bandwidth-lean arm)
//
// on a GPU cluster over 10 GbE — the configuration Section V.A calls
// communication-limited — plus a heterogeneous-fleet arm that reruns the
// placement cost-model drift audit with compression on (the cost model
// prices the deterministic dense-quantized wire size, so predicted vs
// measured must still agree).
//
// Emits BENCH_precision.json; with --check asserts (a) every arm reaches
// --eps (storage precision must not cost convergence at this tolerance),
// (b) the bandwidth-lean arm's simulated time-to-gap speedup over the
// baseline clears --min-speedup, (c) delta bytes-on-wire shrink by at least
// --min-reduction vs the raw fp64 exchange, and (d) per-term cost-model
// drift on the compressed fleet stays under --max-drift.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"

#include "cluster/delta_codec.hpp"
#include "cluster/dist_solver.hpp"
#include "cluster/placement/drift.hpp"
#include "cluster/placement/fleet.hpp"
#include "linalg/half.hpp"

namespace {

using namespace tpa;

struct Arm {
  const char* name;
  linalg::SharedPrecision precision;
  bool compress;
};

struct ArmResult {
  double time_to_gap = 0.0;
  bool reached = false;
  double final_gap = 0.0;
  int epochs = 0;
  double wire_mb = 0.0;   // delta bytes actually put on the wire
  double dense_mb = 0.0;  // the raw fp64 exchange would have cost this
  double reduction = 0.0; // dense / wire (1.0 on uncompressed arms)
};

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser parser("ablation_precision",
                           "fp16 shared storage x compressed delta exchange "
                           "on a communication-limited GPU cluster");
    bench::add_common_options(parser);
    parser.add_option("workers", "GPU workers", "8");
    parser.add_option("merge-every",
                      "replica merge interval (>0: batched write-back — the "
                      "pipeline whose storage width fp16 halves)",
                      "1");
    parser.add_option("eps", "target duality gap", "3e-3");
    parser.add_option("fleet",
                      "heterogeneous fleet for the drift arm "
                      "(see --help in tpascd_train)",
                      "4xtitanx,4xcpu:4");
    parser.add_option("out-dir", "directory for BENCH_precision.json", ".");
    parser.add_option("min-speedup",
                      "--check fails below this bandwidth-lean time-to-gap "
                      "speedup",
                      "1.3");
    parser.add_option("min-reduction",
                      "--check fails below this delta bytes-on-wire "
                      "reduction",
                      "2.0");
    parser.add_option("max-drift",
                      "--check fails above this per-term cost-model drift "
                      "on the compressed fleet",
                      "0.15");
    parser.add_flag("check", "exit non-zero if a precision gate fails");
    if (!parser.parse(argc, argv)) return 1;

    auto options = bench::read_common_options(parser);
    options.max_epochs = static_cast<int>(parser.get_int("epochs", 200));
    const double eps = parser.get_double("eps", 3e-3);
    const int workers = static_cast<int>(parser.get_int("workers", 8));

    const auto dataset = bench::make_webspam(options);
    const auto saved_precision = linalg::shared_precision();

    const Arm arms[] = {
        {"fp32/dense", linalg::SharedPrecision::kFp32, false},
        {"fp32/compressed", linalg::SharedPrecision::kFp32, true},
        {"fp16/dense", linalg::SharedPrecision::kFp16, false},
        {"fp16/compressed", linalg::SharedPrecision::kFp16, true},
    };

    util::Table table({"arm", "time-to-gap (s)", "epochs", "final gap",
                       "delta wire (MB)", "reduction"});
    std::vector<ArmResult> results;
    for (const auto& arm : arms) {
      linalg::set_shared_precision(arm.precision);
      cluster::DistConfig config;
      config.formulation = core::Formulation::kDual;
      config.num_workers = workers;
      config.local_solver.kind = core::SolverKind::kTpaM4000;
      // All four arms run the replicated write-back pipeline: fp16 storage
      // only exists there (float atomics have no 16-bit form), and sharing
      // the algorithm isolates the precision/compression effect.
      config.local_solver.merge_every =
          static_cast<int>(parser.get_int("merge-every", 1));
      config.network = cluster::NetworkModel::ethernet_10g();
      config.lambda = options.lambda;
      config.seed = options.seed;
      config.compress_deltas = arm.compress;

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
      result.final_gap =
          trace.points().empty() ? 0.0 : trace.points().back().gap;
      result.epochs = static_cast<int>(trace.points().size());
      result.wire_mb =
          static_cast<double>(solver.delta_bytes_on_wire()) / 1e6;
      result.dense_mb =
          static_cast<double>(solver.delta_bytes_dense()) / 1e6;
      result.reduction = solver.delta_bytes_on_wire() > 0
                             ? result.dense_mb / result.wire_mb
                             : 0.0;
      results.push_back(result);

      table.begin_row();
      table.add_cell(arm.name);
      table.add_cell(result.reached
                         ? util::Table::format_number(result.time_to_gap)
                         : "not reached");
      table.add_integer(result.epochs);
      table.add_cell(util::Table::format_number(result.final_gap));
      table.add_cell(util::Table::format_number(result.wire_mb));
      table.add_cell(util::Table::format_number(result.reduction) + "x");
    }
    linalg::set_shared_precision(saved_precision);
    bench::emit(table, options);

    const auto& baseline = results[0];
    const auto& lean = results[3];  // fp16/compressed is the headline arm
    const double speedup =
        (baseline.reached && lean.reached && lean.time_to_gap > 0)
            ? baseline.time_to_gap / lean.time_to_gap
            : 0.0;
    bench::shape_check("bandwidth-lean (fp16/compressed) time-to-gap speedup",
                       speedup, ">=1.3x (both hot channels halved)");
    bench::shape_check("delta bytes-on-wire reduction vs raw fp64",
                       lean.reduction, ">=2x (fp16 payload + fp32 scales)");

    // Drift arm: the makespan-split heterogeneous placement, compressed.  The
    // cost model prices the deterministic dense-quantized wire size, so the
    // predicted round decomposition must still match the engine's measured
    // attribution term by term.
    const auto fleet = cluster::placement::parse_fleet_spec(
        parser.get_string("fleet", "4xtitanx,4xcpu:4"));
    double fleet_drift = 0.0;
    {
      cluster::DistConfig config;
      config.formulation = core::Formulation::kDual;
      config.num_workers = static_cast<int>(fleet.size());
      config.aggregation = cluster::AggregationMode::kAveraging;
      config.network = cluster::NetworkModel::ethernet_10g();
      config.lambda = options.lambda;
      config.seed = options.seed;
      config.fleet = fleet;
      config.placement = cluster::placement::PlacementMode::kOptimize;
      config.compress_deltas = true;

      cluster::DistributedSolver solver(dataset, config);
      core::RunOptions run_options;
      run_options.max_epochs = options.max_epochs;
      run_options.record_interval = 1;
      run_options.target_gap = eps;
      cluster::run_distributed(solver, run_options);
      if (const auto* plan = solver.placement_result()) {
        const auto drift = cluster::placement::audit_placement_drift(
            plan->predicted, solver.attribution_totals(),
            solver.attribution_rounds());
        fleet_drift = drift.max_rel_error;
        std::printf("\n[compressed fleet] ");
        cluster::placement::print_drift_report(std::cout, drift);
      }
    }

    const bench::BenchMeta meta = {
        {"half_hardware", linalg::half_hardware_build() ? "true" : "false"},
        {"network", "10GbE"},
        {"fleet", cluster::placement::fleet_summary(fleet)},
    };
    std::vector<bench::BenchResult> records;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      records.push_back(
          {std::string("time_to_gap/") + arms[i].name, r.time_to_gap,
           "sim_seconds",
           {{"reached", r.reached ? 1.0 : 0.0},
            {"epochs", static_cast<double>(r.epochs)},
            {"final_gap", r.final_gap},
            {"delta_wire_mb", r.wire_mb},
            {"delta_dense_mb", r.dense_mb},
            {"wire_reduction", r.reduction}}});
    }
    records.push_back({"speedup/time_to_gap", speedup, "x", {{"eps", eps}}});
    records.push_back(
        {"reduction/delta_bytes", lean.reduction, "x", {}});
    records.push_back(
        {"drift/compressed_fleet", fleet_drift, "rel_error", {}});
    const auto out_dir = parser.get_string("out-dir", ".");
    bench::write_json_file(out_dir + "/BENCH_precision.json", "precision",
                           records, meta);
    std::printf("wrote %s/BENCH_precision.json\n", out_dir.c_str());

    if (parser.get_bool("check")) {
      const double min_speedup = parser.get_double("min-speedup", 1.3);
      const double min_reduction = parser.get_double("min-reduction", 2.0);
      const double max_drift = parser.get_double("max-drift", 0.15);
      bool ok = true;
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].reached) {
          std::printf("CHECK FAILED: [%s] never reached eps %.1e "
                      "(final gap %.3e) — storage precision is costing "
                      "convergence\n",
                      arms[i].name, eps, results[i].final_gap);
          ok = false;
        }
      }
      if (speedup < min_speedup) {
        std::printf("CHECK FAILED: bandwidth-lean speedup %.2fx < %.2fx\n",
                    speedup, min_speedup);
        ok = false;
      }
      for (const std::size_t i : {std::size_t{1}, std::size_t{3}}) {
        if (results[i].reduction < min_reduction) {
          std::printf("CHECK FAILED: [%s] wire reduction %.2fx < %.2fx\n",
                      arms[i].name, results[i].reduction, min_reduction);
          ok = false;
        }
      }
      if (fleet_drift > max_drift) {
        std::printf("CHECK FAILED: compressed-fleet cost-model drift %.3f > "
                    "%.3f — the wire-size pricing has diverged from the "
                    "round engine\n",
                    fleet_drift, max_drift);
        ok = false;
      }
      if (!ok) return 2;
      std::printf("precision checks passed (speedup %.2fx >= %.2fx, "
                  "reduction %.2fx >= %.2fx, fleet drift %.3f <= %.3f)\n",
                  speedup, min_speedup, lean.reduction, min_reduction,
                  fleet_drift, max_drift);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
