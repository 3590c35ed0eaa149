// Click-through-rate prediction — the paper's criteo scenario (Section V.B).
//
// The one-day criteo sample is 200M examples x 75M one-hot features and
// occupies ~40 GB: it does not fit in any single GPU, so training *must* be
// distributed.  This example builds the scaled criteo-like dataset, checks
// the capacity argument against the real device specs, then trains
// distributed TPA-SCD with adaptive aggregation across 4 simulated Titan X
// GPUs and reports classification accuracy.
//
//   ./click_prediction [--examples N] [--fields F] [--buckets B]
//                      [--workers K] [--epochs E]
#include <cstdio>

#include "cluster/dist_solver.hpp"
#include "core/metrics.hpp"
#include "data/generators.hpp"
#include "gpusim/device.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace tpa;

  util::ArgParser parser("click_prediction",
                         "criteo-style CTR training on a simulated GPU "
                         "cluster");
  parser.add_option("examples", "number of click events", "32768");
  parser.add_option("fields", "categorical fields per event", "24");
  parser.add_option("buckets", "hash buckets per field", "512");
  parser.add_option("workers", "GPU workers", "4");
  parser.add_option("lambda", "regularisation strength", "1e-3");
  parser.add_option("epochs", "training epochs", "40");
  if (!parser.parse(argc, argv)) return 1;

  data::CriteoLikeConfig config;
  config.num_examples =
      static_cast<data::Index>(parser.get_int("examples", 32768));
  config.num_fields = static_cast<data::Index>(parser.get_int("fields", 24));
  config.buckets_per_field =
      static_cast<data::Index>(parser.get_int("buckets", 512));
  const auto dataset = data::make_criteo_like(config);
  std::printf("dataset: %s\n",
              sparse::compute_stats(dataset.by_row()).summary().c_str());

  // The capacity argument that motivates Section V of the paper.
  const auto& scale = *dataset.paper_scale();
  const double paper_gib =
      static_cast<double>(scale.nnz) * 8.0 / (1024.0 * 1024 * 1024);
  const auto titan = gpusim::DeviceSpec::titan_x();
  const int workers = static_cast<int>(parser.get_int("workers", 4));
  std::printf(
      "paper-scale criteo sample: %.1f GiB; single %s holds %.0f GiB -> %s; "
      "split across %d workers -> %s\n",
      paper_gib, titan.name.c_str(),
      static_cast<double>(titan.mem_capacity_bytes) / (1024.0 * 1024 * 1024),
      titan.fits(static_cast<std::size_t>(paper_gib * (1ULL << 30))) ? "fits"
                                                                     : "does NOT fit",
      workers,
      titan.fits(static_cast<std::size_t>(paper_gib * (1ULL << 30)) /
                 static_cast<std::size_t>(workers))
          ? "fits"
          : "does NOT fit");

  cluster::DistConfig dist;
  dist.formulation = core::Formulation::kDual;  // partition by example
  dist.num_workers = workers;
  dist.aggregation = cluster::AggregationMode::kAdaptive;
  dist.local_solver.kind = core::SolverKind::kTpaTitanX;
  dist.local_solver.charge_paper_scale_memory = true;
  dist.network = cluster::NetworkModel::pcie_peer();
  dist.lambda = parser.get_double("lambda", 1e-3);
  cluster::DistributedSolver solver(dataset, dist);
  std::printf("setup (shard upload over PCIe, paper scale): %.3f s\n",
              solver.setup_sim_seconds());

  const int epochs = static_cast<int>(parser.get_int("epochs", 40));
  double sim_time = solver.setup_sim_seconds();
  std::printf("epoch  gap        gamma   sim time (s)\n");
  for (int epoch = 1; epoch <= epochs; ++epoch) {
    const auto report = solver.run_epoch();
    sim_time += report.sim_seconds;
    if (epoch % 5 == 0 || epoch == 1) {
      std::printf("%5d  %.3e  %.3f  %.3f\n", epoch, solver.duality_gap(),
                  solver.last_gamma(), sim_time);
    }
  }
  const auto& breakdown = solver.last_attribution();
  std::printf(
      "last epoch breakdown: gpu %.4f s, host %.4f s, pcie %.4f s, "
      "network %.4f s\n",
      breakdown.compute_seconds + breakdown.straggler_wait_seconds,
      breakdown.host_seconds, breakdown.pcie_seconds,
      breakdown.network_seconds);

  // Evaluate: assemble the dual model, map to primal weights, score signs.
  const core::RidgeProblem problem(dataset, dist.lambda);
  const auto beta =
      problem.primal_from_dual_shared(solver.global_shared());
  const auto predictions = core::predict(dataset, beta);
  std::printf("click prediction accuracy: %.2f%%\n",
              100.0 * core::sign_accuracy(predictions, dataset.labels()));
  return 0;
}
