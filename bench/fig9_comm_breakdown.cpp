// Reproduces Fig. 9: computation-vs-communication breakdown of distributed
// TPA-SCD on the M4000/10GbE cluster solving the dual form to duality gap
// 1e-5, for K = 1, 2, 4, 8 workers; webspam stand-in, λ = 1e-3.
//
// Each epoch's simulated time splits into the four stacked components of
// the figure: GPU compute, host compute, PCIe transfers, and network
// reduce/broadcast.  Paper shapes: GPU compute dominates everywhere; the
// communication share grows with K but is only ≈17% at K = 8.
#include "bench_common.hpp"

#include "cluster/dist_solver.hpp"

namespace {

constexpr int kWorkerCounts[] = {1, 2, 4, 8};

}  // namespace

int main(int argc, char** argv) {
  using namespace tpa;

  util::ArgParser parser("fig9_comm_breakdown",
                         "Fig. 9 — compute vs communication on the M4000 "
                         "cluster (dual form)");
  bench::add_common_options(parser);
  parser.add_option("eps", "target duality gap", "1e-5");
  if (!parser.parse(argc, argv)) return 1;
  auto options = bench::read_common_options(parser);
  options.max_epochs = static_cast<int>(parser.get_int("epochs", 300));
  const double eps = parser.get_double("eps", 1e-5);

  const auto dataset = bench::make_webspam(options);

  std::cout << "\n== Fig. 9: sim time (s) to gap <= "
            << util::Table::format_number(eps)
            << ", split into the four stacked components ==\n";
  util::Table table({"workers", "comp GPU", "comp host", "comm PCIe",
                     "comm network", "total", "comm share"});
  double comm_share_at_8 = 0.0;
  for (const int workers : kWorkerCounts) {
    cluster::DistConfig config;
    config.formulation = core::Formulation::kDual;
    config.num_workers = workers;
    config.aggregation = cluster::AggregationMode::kAveraging;
    config.local_solver.kind = core::SolverKind::kTpaM4000;
    config.network = cluster::NetworkModel::ethernet_10g();
    config.lambda = options.lambda;
    config.seed = options.seed;
    cluster::DistributedSolver solver(dataset, config);

    for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
      solver.run_epoch();
      if (solver.duality_gap() <= eps) break;
    }
    const auto& total = solver.attribution_totals();
    const double comm = total.pcie_seconds + total.network_seconds;
    const double share = comm / total.total();
    table.begin_row();
    table.add_integer(workers);
    table.add_number(total.compute_seconds + total.straggler_wait_seconds);
    table.add_number(total.host_seconds);
    table.add_number(total.pcie_seconds);
    table.add_number(total.network_seconds);
    table.add_number(total.total());
    table.add_cell(util::Table::format_number(share * 100.0) + "%");
    if (workers == 8) comm_share_at_8 = share;
  }
  bench::emit(table, options);

  bench::shape_check("communication share of total time at K=8",
                     comm_share_at_8 * 100.0, "~17%");
  return 0;
}
