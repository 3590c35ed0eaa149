// Ablation: interconnect sensitivity of distributed TPA-SCD.
//
// Section V.A of the paper observes the communication share growing with
// worker count on 10 GbE (~17% at K = 8) and remarks that "the use of a
// 100Gbit ethernet network interface would improve the scaling behavior
// further".  This bench quantifies that remark: the Fig. 9 breakdown
// repeated across 10 GbE, 100 GbE and PCIe-peer interconnects.
#include "bench_common.hpp"

#include "cluster/dist_solver.hpp"

int main(int argc, char** argv) {
  using namespace tpa;

  util::ArgParser parser("ablation_network",
                         "communication share vs interconnect (dual, "
                         "M4000 workers)");
  bench::add_common_options(parser);
  parser.add_option("eps", "target duality gap", "1e-5");
  if (!parser.parse(argc, argv)) return 1;
  auto options = bench::read_common_options(parser);
  options.max_epochs = static_cast<int>(parser.get_int("epochs", 300));
  const double eps = parser.get_double("eps", 1e-5);

  const auto dataset = bench::make_webspam(options);

  const cluster::NetworkModel networks[] = {
      cluster::NetworkModel::ethernet_10g(),
      cluster::NetworkModel::ethernet_100g(),
      cluster::NetworkModel::pcie_peer(),
  };

  std::cout << "\n== time to gap <= " << util::Table::format_number(eps)
            << " and communication share vs interconnect ==\n";
  util::Table table({"network", "workers", "total (s)", "network (s)",
                     "comm share"});
  double share_10g = 0.0;
  double share_100g = 0.0;
  for (const auto& network : networks) {
    for (const int workers : {2, 4, 8}) {
      cluster::DistConfig config;
      config.formulation = core::Formulation::kDual;
      config.num_workers = workers;
      config.local_solver.kind = core::SolverKind::kTpaM4000;
      config.network = network;
      config.lambda = options.lambda;
      config.seed = options.seed;
      cluster::DistributedSolver solver(dataset, config);

      for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
        solver.run_epoch();
        if (solver.duality_gap() <= eps) break;
      }
      const auto& total = solver.attribution_totals();
      const double share =
          (total.pcie_seconds + total.network_seconds) / total.total();
      table.begin_row();
      table.add_cell(network.name);
      table.add_integer(workers);
      table.add_number(total.total());
      table.add_number(total.network_seconds);
      table.add_cell(util::Table::format_number(share * 100.0) + "%");
      if (workers == 8 && network.name == "10GbE") share_10g = share;
      if (workers == 8 && network.name == "100GbE") share_100g = share;
    }
  }
  bench::emit(table, options);

  if (share_10g > 0.0 && share_100g > 0.0) {
    bench::shape_check("comm share reduction 10GbE -> 100GbE at K=8",
                       share_10g / share_100g,
                       "> 1 (faster network improves scaling, Sect. V.A)");
  }
  return 0;
}
