// Ablation: the computation/communication trade-off of Section IV.A.
//
// The paper, citing Dünner et al. [23], observes that the distributed
// slow-down "can be somewhat alleviated if one was able to communicate
// shared vector updates more frequently and thus perform fewer coordinate
// updates on the workers between communication stages", with an
// infrastructure-dependent optimum.  This bench sweeps H — the number of
// local passes each worker performs per communication round — on a slow
// (10 GbE) and a fast (PCIe) interconnect, reporting simulated time to a
// target gap.  On the fast network small H wins (fresher shared vectors);
// on the slow network larger H amortises the per-round latency.
#include "bench_common.hpp"

#include "cluster/dist_solver.hpp"

int main(int argc, char** argv) {
  using namespace tpa;

  util::ArgParser parser("ablation_comm_frequency",
                         "local passes per round vs interconnect "
                         "(Sect. IV.A / [23] trade-off)");
  bench::add_common_options(parser);
  parser.add_option("workers", "number of workers", "8");
  parser.add_option("eps", "target duality gap", "1e-4");
  if (!parser.parse(argc, argv)) return 1;
  auto options = bench::read_common_options(parser);
  options.max_epochs = static_cast<int>(parser.get_int("epochs", 400));
  const int workers = static_cast<int>(parser.get_int("workers", 8));
  const double eps = parser.get_double("eps", 1e-4);

  const auto dataset = bench::make_webspam(options);

  const cluster::NetworkModel networks[] = {
      cluster::NetworkModel::ethernet_10g(),
      cluster::NetworkModel::pcie_peer(),
  };

  for (const auto& network : networks) {
    std::cout << "\n== " << network.name << ", dual form, K=" << workers
              << ", target gap " << util::Table::format_number(eps)
              << " ==\n";
    util::Table table({"local passes H", "rounds", "sim time (s)",
                       "comm share", "final gap"});
    for (const int passes : {1, 2, 4, 8}) {
      cluster::DistConfig config;
      config.formulation = core::Formulation::kDual;
      config.num_workers = workers;
      config.local_epochs_per_round = passes;
      // GPU local solvers make compute cheap, so the per-round network cost
      // is actually visible in the balance.
      config.local_solver.kind = core::SolverKind::kTpaM4000;
      config.network = network;
      config.lambda = options.lambda;
      config.seed = options.seed;
      cluster::DistributedSolver solver(dataset, config);
      core::RunOptions run_options;
      run_options.max_epochs = options.max_epochs / passes;
      run_options.record_interval = 1;
      run_options.target_gap = eps;
      core::ConvergenceTrace trace;
      double sim_total = solver.setup_sim_seconds();
      for (int round = 1; round <= run_options.max_epochs; ++round) {
        const auto report = solver.run_epoch();
        sim_total += report.sim_seconds;
        core::TracePoint point;
        point.epoch = round;
        point.gap = solver.duality_gap();
        point.sim_seconds = sim_total;
        trace.add(point);
        if (point.gap <= eps) break;
      }
      const auto rounds = trace.epochs_to_gap(eps);
      const auto [seconds, reached] = bench::time_to_gap(trace, eps);
      table.begin_row();
      table.add_integer(passes);
      table.add_cell(rounds.has_value() ? std::to_string(*rounds)
                                        : "not reached");
      table.add_cell(reached ? util::Table::format_number(seconds)
                             : "not reached");
      const auto& total = solver.attribution_totals();
      table.add_cell(util::Table::format_number(
                         100.0 *
                         (total.pcie_seconds + total.network_seconds) /
                         total.total()) +
                     "%");
      table.add_number(trace.final_gap());
    }
    bench::emit(table, options);
  }
  std::cout << "\nnote: larger H amortises the per-round communication (see the "
               "comm-share column) but each extra local pass works against "
               "a staler shared vector and so barely reduces the rounds "
               "needed — on these interconnects H = 1 (Algorithm 3 as "
               "written) is the right operating point, which is the "
               "infrastructure-dependent trade-off of [23].\n";
  return 0;
}
