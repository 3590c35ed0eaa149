// Multi-GPU scaling study — an interactive version of the paper's Figs. 8/9.
//
// Sweeps worker counts on a chosen GPU + interconnect combination, printing
// time-to-gap and the compute/communication split per configuration, so a
// user can answer "how many GPUs should I buy, and will my network keep
// up?" for their own workload shape.
//
//   ./multi_gpu_scaling [--device m4000|titanx] [--network 10g|100g|pcie]
//                       [--examples N] [--features M] [--max-workers K]
#include <cstdio>
#include <string>

#include "cluster/dist_solver.hpp"
#include "data/generators.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace tpa;

  util::ArgParser parser("multi_gpu_scaling",
                         "sweep GPU worker counts and interconnects");
  parser.add_option("device", "m4000 | titanx", "m4000");
  parser.add_option("network", "10g | 100g | pcie", "10g");
  parser.add_option("examples", "number of training examples", "8192");
  parser.add_option("features", "number of features", "16384");
  parser.add_option("lambda", "regularisation strength", "1e-3");
  parser.add_option("max-workers", "largest worker count to sweep", "8");
  parser.add_option("eps", "target duality gap", "1e-5");
  parser.add_option("epochs", "epoch cap per run", "200");
  if (!parser.parse(argc, argv)) return 1;

  const std::string device = parser.get_string("device", "m4000");
  const std::string network = parser.get_string("network", "10g");
  const auto solver_kind = device == "titanx" ? core::SolverKind::kTpaTitanX
                                              : core::SolverKind::kTpaM4000;
  cluster::NetworkModel net = cluster::NetworkModel::ethernet_10g();
  if (network == "100g") net = cluster::NetworkModel::ethernet_100g();
  if (network == "pcie") net = cluster::NetworkModel::pcie_peer();

  data::WebspamLikeConfig config;
  config.num_examples =
      static_cast<data::Index>(parser.get_int("examples", 8192));
  config.num_features =
      static_cast<data::Index>(parser.get_int("features", 16384));
  const auto dataset = data::make_webspam_like(config);

  const double eps = parser.get_double("eps", 1e-5);
  const int max_workers = static_cast<int>(parser.get_int("max-workers", 8));
  const int epoch_cap = static_cast<int>(parser.get_int("epochs", 200));

  std::printf("device=%s network=%s target gap=%.1e (simulated times at "
              "paper scale)\n\n",
              device.c_str(), net.name.c_str(), eps);
  std::printf("%7s  %7s  %10s  %9s  %9s  %9s  %9s  %6s\n", "workers",
              "epochs", "time-to-eps", "gpu", "host", "pcie", "network",
              "comm%");
  for (int workers = 1; workers <= max_workers; workers *= 2) {
    cluster::DistConfig dist;
    dist.formulation = core::Formulation::kDual;
    dist.num_workers = workers;
    dist.aggregation = cluster::AggregationMode::kAdaptive;
    dist.local_solver.kind = solver_kind;
    dist.network = net;
    dist.lambda = parser.get_double("lambda", 1e-3);
    cluster::DistributedSolver solver(dataset, dist);

    double time_to_eps = -1.0;
    double sim_time = solver.setup_sim_seconds();
    int epochs_used = 0;
    for (int epoch = 1; epoch <= epoch_cap; ++epoch) {
      const auto report = solver.run_epoch();
      sim_time += report.sim_seconds;
      epochs_used = epoch;
      if (solver.duality_gap() <= eps) {
        time_to_eps = sim_time;
        break;
      }
    }
    const auto& total = solver.attribution_totals();
    const double comm = total.pcie_seconds + total.network_seconds;
    char time_text[32];
    if (time_to_eps >= 0) {
      std::snprintf(time_text, sizeof(time_text), "%.3fs", time_to_eps);
    } else {
      std::snprintf(time_text, sizeof(time_text), "not hit");
    }
    std::printf("%7d  %7d  %10s  %9.3f  %9.4f  %9.4f  %9.4f  %5.1f%%\n",
                workers, epochs_used, time_text,
                total.compute_seconds + total.straggler_wait_seconds,
                total.host_seconds, total.pcie_seconds, total.network_seconds,
                100.0 * comm / total.total());
  }
  std::printf("\nNote: the dataset is a webspam-scale stand-in; simulated "
              "times are evaluated at the real dataset's dimensions "
              "(DESIGN.md section 5).\n");
  return 0;
}
