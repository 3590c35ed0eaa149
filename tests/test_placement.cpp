// Heterogeneous placement layer (DESIGN.md §14): fleet specs, the round
// cost model with comm/compute overlap, the makespan split and its plan, and
// the wiring into both cluster drivers — including the bit-exactness
// guarantees (uniform fleet == legacy equal split; same config == same run;
// checkpoint/resume preserves both).
#include "cluster/placement/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster/async_solver.hpp"
#include "cluster/dist_solver.hpp"
#include "cluster/placement/cost_model.hpp"
#include "cluster/placement/fleet.hpp"
#include "data/generators.hpp"

namespace tpa::cluster::placement {
namespace {

data::Dataset corpus() {
  data::WebspamLikeConfig config;
  config.num_examples = 240;
  config.num_features = 96;
  config.avg_nnz_per_row = 12.0;
  return data::make_webspam_like(config);
}

core::TimingWorkload paper_workload(const data::Dataset& dataset) {
  return core::TimingWorkload::for_dataset(dataset, core::Formulation::kDual);
}

PlacementCostModel imbalanced_model(const data::Dataset& dataset,
                                    CostOptions options = {}) {
  return PlacementCostModel(parse_fleet_spec("2xtitanx,2xcpu:4"),
                            dataset.num_examples(), paper_workload(dataset),
                            NetworkModel::pcie_peer(), options);
}

// ---- fleet specs ----------------------------------------------------------

TEST(FleetSpec, ParsesMixedFleet) {
  const auto fleet = parse_fleet_spec("4xtitanx,4xcpu:4");
  ASSERT_EQ(fleet.size(), 8u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE(fleet[k].is_gpu());
    EXPECT_EQ(fleet[k].solver_kind(), core::SolverKind::kTpaTitanX);
  }
  for (int k = 4; k < 8; ++k) {
    EXPECT_FALSE(fleet[k].is_gpu());
    EXPECT_EQ(fleet[k].threads, 4);
    EXPECT_EQ(fleet[k].solver_kind(), core::SolverKind::kThreadedReplicated);
  }
  EXPECT_TRUE(fleet_has_gpu(fleet));
  EXPECT_EQ(fleet_summary(fleet), "4xtitanx + 4xcpu:4 (8 workers)");
}

TEST(FleetSpec, SingleThreadCpuRunsSequential) {
  const auto fleet = parse_fleet_spec("2xcpu");
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_EQ(fleet[0].threads, 1);
  EXPECT_EQ(fleet[0].solver_kind(), core::SolverKind::kSequential);
  EXPECT_FALSE(fleet_has_gpu(fleet));
}

TEST(FleetSpec, ParsesM4000) {
  const auto fleet = parse_fleet_spec("1xm4000");
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet[0].solver_kind(), core::SolverKind::kTpaM4000);
}

TEST(FleetSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "4x", "xcpu", "0xcpu", "-1xcpu", "4xcpu:0",
                          "4xcpu:-2", "4xwidget", "4titanx", "4xcpu:"}) {
    EXPECT_THROW(parse_fleet_spec(bad), std::invalid_argument) << bad;
  }
}

TEST(FleetSpec, SolverConfigKeepsBaseSeedAndMergeInterval) {
  core::SolverConfig base;
  base.seed = 4242;
  base.merge_every = 32;
  const auto cpu = DeviceSpec::cpu_pool(8).solver_config(base);
  EXPECT_EQ(cpu.kind, core::SolverKind::kThreadedReplicated);
  EXPECT_EQ(cpu.threads, 8);
  EXPECT_EQ(cpu.seed, 4242u);
  EXPECT_EQ(cpu.merge_every, 32);
  const auto gpu = DeviceSpec::titan_x().solver_config(base);
  EXPECT_EQ(gpu.kind, core::SolverKind::kTpaTitanX);
  EXPECT_EQ(gpu.seed, 4242u);
}

TEST(FleetSpec, GpuIsFasterThanCpuPoolOnPaperScaleWork) {
  const auto dataset = corpus();
  const auto w = paper_workload(dataset);
  EXPECT_LT(DeviceSpec::titan_x().epoch_seconds(w),
            DeviceSpec::cpu_pool(4).epoch_seconds(w));
}

// ---- uniform sizes --------------------------------------------------------

TEST(UniformSizes, MatchesTheRoundRobinDeal) {
  for (const auto& [n, workers] :
       {std::pair<Index, int>{10, 3}, {7, 7}, {64, 8}, {5, 2}, {1, 1}}) {
    const auto sizes = uniform_partition_sizes(n, workers);
    util::Rng rng(3);
    const auto partition = Partition::random(n, workers, rng);
    ASSERT_EQ(sizes.size(), partition.owned.size());
    Index total = 0;
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      EXPECT_EQ(sizes[k], partition.owned[k].size()) << "worker " << k;
      total += sizes[k];
    }
    EXPECT_EQ(total, n);
  }
}

// ---- overlapped reduce ----------------------------------------------------

TEST(OverlappedReduce, SingleArrivalHasNoCollectiveCost) {
  const auto net = NetworkModel::pcie_peer();
  EXPECT_DOUBLE_EQ(overlapped_reduce_seconds({0.5}, 1 << 20, net), 0.5);
}

TEST(OverlappedReduce, EqualArrivalsFallBackToTheTree) {
  const auto net = NetworkModel::pcie_peer();
  const std::size_t bytes = 1 << 20;
  const std::vector<double> arrivals(8, 1.0);
  EXPECT_DOUBLE_EQ(overlapped_reduce_seconds(arrivals, bytes, net),
                   1.0 + net.reduce_seconds(bytes, 8));
}

TEST(OverlappedReduce, NeverSlowerThanWaitingForTheTree) {
  const auto net = NetworkModel::ethernet_10g();
  const std::size_t bytes = 4 << 20;
  const std::vector<double> arrivals{0.0, 0.01, 0.02, 0.5, 1.0, 5.0};
  const double overlapped = overlapped_reduce_seconds(arrivals, bytes, net);
  EXPECT_LE(overlapped, 5.0 + net.reduce_seconds(bytes, arrivals.size()));
}

TEST(OverlappedReduce, StaggeredArrivalsHideTransferTime) {
  // Deltas spaced wider than one p2p transfer: every ingest but the last is
  // hidden behind the next arrival, so the master finishes one transfer
  // after the last arrival — strictly better than the post-barrier tree.
  const auto net = NetworkModel::ethernet_10g();
  const std::size_t bytes = 16 << 20;
  const double step = net.point_to_point_seconds(bytes) * 2.0;
  std::vector<double> arrivals;
  for (int k = 0; k < 6; ++k) arrivals.push_back(step * k);
  const double overlapped = overlapped_reduce_seconds(arrivals, bytes, net);
  EXPECT_NEAR(overlapped, arrivals.back() + net.point_to_point_seconds(bytes),
              1e-12);
  EXPECT_LT(overlapped, arrivals.back() + net.reduce_seconds(bytes, 6));
}

// ---- cost model -----------------------------------------------------------

TEST(PlacementCostModel, ValidatesInputs) {
  const auto dataset = corpus();
  const auto w = paper_workload(dataset);
  const auto fleet = parse_fleet_spec("2xcpu");
  EXPECT_THROW(PlacementCostModel({}, 10, w, NetworkModel::pcie_peer(), {}),
               std::invalid_argument);
  EXPECT_THROW(PlacementCostModel(fleet, 1, w, NetworkModel::pcie_peer(), {}),
               std::invalid_argument);
  CostOptions bad_passes;
  bad_passes.local_passes = 0;
  EXPECT_THROW(
      PlacementCostModel(fleet, 10, w, NetworkModel::pcie_peer(), bad_passes),
      std::invalid_argument);
  NetworkModel bad_net = NetworkModel::pcie_peer();
  bad_net.bandwidth_gbps = 0.0;
  EXPECT_THROW(PlacementCostModel(fleet, 10, w, bad_net, {}),
               std::invalid_argument);
}

TEST(PlacementCostModel, ComputeIsTheSlowestWorker) {
  const auto dataset = corpus();
  const auto model = imbalanced_model(dataset);
  const auto uniform =
      uniform_partition_sizes(model.partition_dim(), model.num_workers());
  const auto per_worker = model.worker_compute_seconds(uniform);
  ASSERT_EQ(per_worker.size(), 4u);
  const auto prediction = model.price(uniform);
  double slowest = 0.0;
  for (const double t : per_worker) slowest = std::max(slowest, t);
  EXPECT_DOUBLE_EQ(prediction.compute_seconds, slowest);
  // CPU pools are the stragglers under the equal split.
  EXPECT_GT(per_worker[2], per_worker[0]);
  EXPECT_DOUBLE_EQ(model.slot_seconds(2, uniform[2]), per_worker[2]);
}

TEST(PlacementCostModel, FullDimensionReproducesTheGlobalWorkload) {
  const auto dataset = corpus();
  const auto model = imbalanced_model(dataset);
  const auto w = model.worker_workload(model.partition_dim());
  EXPECT_EQ(w.nnz, model.workload().nnz);
  EXPECT_EQ(w.num_coordinates, model.workload().num_coordinates);
  EXPECT_EQ(w.shared_dim, model.workload().shared_dim);
}

TEST(PlacementCostModel, OverlapNeverRaisesThePrice) {
  const auto dataset = corpus();
  CostOptions overlap;
  overlap.comm_overlap = true;
  const auto plain = imbalanced_model(dataset);
  const auto overlapped = imbalanced_model(dataset, overlap);
  const auto uniform =
      uniform_partition_sizes(plain.partition_dim(), plain.num_workers());
  EXPECT_LE(overlapped.price(uniform).total() * (1.0 - 1e-12),
            plain.price(uniform).total());
}

// ---- the plan ---------------------------------------------------------------
// (The suite keeps the name of the seeded annealer the split replaced.)

TEST(Annealer, ParsesPlacementModes) {
  EXPECT_EQ(parse_placement_mode("uniform"), PlacementMode::kUniform);
  EXPECT_EQ(parse_placement_mode("optimize"), PlacementMode::kOptimize);
  EXPECT_THROW(parse_placement_mode("anneal"), std::invalid_argument);
}

TEST(Annealer, UniformModeSkipsTheSearch) {
  const auto dataset = corpus();
  const auto model = imbalanced_model(dataset);
  const auto plan = plan_placement(model, PlacementMode::kUniform);
  EXPECT_FALSE(plan.optimized);
  EXPECT_EQ(plan.sizes, plan.uniform_sizes);
  EXPECT_DOUBLE_EQ(plan.predicted.total(), plan.uniform_predicted.total());
}

TEST(Annealer, OptimizedNeverLosesToUniform) {
  const auto dataset = corpus();
  const auto model = imbalanced_model(dataset);
  const auto plan = plan_placement(model, PlacementMode::kOptimize);
  EXPECT_LE(plan.predicted.total(), plan.uniform_predicted.total());
  Index total = 0;
  for (const auto size : plan.sizes) {
    EXPECT_GE(size, 1u);
    total += size;
  }
  EXPECT_EQ(total, model.partition_dim());
}

TEST(Annealer, BeatsUniformOnAnImbalancedFleet) {
  const auto dataset = corpus();
  CostOptions options;
  options.comm_overlap = true;
  const auto model = imbalanced_model(dataset, options);
  const auto plan = plan_placement(model, PlacementMode::kOptimize);
  EXPECT_TRUE(plan.optimized);
  EXPECT_GT(plan.predicted_speedup(), 1.3);
  // The GPUs end up owning more coordinates than the CPU pools.
  EXPECT_GT(plan.sizes[0] + plan.sizes[1], plan.sizes[2] + plan.sizes[3]);
}

TEST(Annealer, SingleWorkerShortCircuitsToUniform) {
  const auto dataset = corpus();
  PlacementCostModel model(parse_fleet_spec("1xtitanx"),
                           dataset.num_examples(), paper_workload(dataset),
                           NetworkModel::pcie_peer(), {});
  const auto plan = plan_placement(model, PlacementMode::kOptimize);
  EXPECT_FALSE(plan.optimized);
  ASSERT_EQ(plan.sizes.size(), 1u);
  EXPECT_EQ(plan.sizes[0], dataset.num_examples());
}

double compute_makespan(const PlacementCostModel& model,
                        const std::vector<Index>& sizes) {
  const auto seconds = model.worker_compute_seconds(sizes);
  return *std::max_element(seconds.begin(), seconds.end());
}

// The minimum compute makespan over every size vector (each >= 1, summing
// to the dimension), by exhaustive enumeration.
double exhaustive_makespan(const PlacementCostModel& model) {
  const auto slots = static_cast<std::size_t>(model.num_workers());
  std::vector<Index> sizes(slots, 1);
  double best = std::numeric_limits<double>::infinity();
  const std::function<void(std::size_t, Index)> fill = [&](std::size_t k,
                                                           Index left) {
    if (k + 1 == slots) {
      sizes[k] = left;
      best = std::min(best, compute_makespan(model, sizes));
      return;
    }
    const auto later = static_cast<Index>(slots - k - 1);
    for (Index size = 1; size + later <= left; ++size) {
      sizes[k] = size;
      fill(k + 1, left - size);
    }
  };
  fill(0, model.partition_dim());
  return best;
}

TEST(MakespanSplit, ReachesTheExhaustiveMinimumOnEverySmallFleet) {
  // Every fleet of 2-4 slots over four devices, every dimension up to 16,
  // priced on this corpus (launch overhead dominates a GPU's small share)
  // and on a paper-scale webspam dual (bandwidth does) with two local
  // passes and overlap.
  const auto dataset = corpus();
  CostOptions paper_options;
  paper_options.local_passes = 2;
  paper_options.comm_overlap = true;
  const std::pair<core::TimingWorkload, CostOptions> workloads[] = {
      {paper_workload(dataset), CostOptions{}},
      {core::TimingWorkload{980'000'000, 262'938, 680'715}, paper_options},
  };
  const std::string devices[] = {"cpu", "cpu:4", "m4000", "titanx"};
  int cases = 0;
  for (std::size_t slots = 2; slots <= 4; ++slots) {
    std::vector<std::size_t> pick(slots, 0);
    for (;;) {
      FleetSpec fleet;
      bool homogeneous = true;
      for (const auto d : pick) {
        fleet.push_back(parse_fleet_spec("1x" + devices[d])[0]);
        homogeneous = homogeneous && d == pick[0];
      }
      for (const auto& [workload, options] : workloads) {
        for (Index dim = static_cast<Index>(slots); dim <= 16; ++dim) {
          const PlacementCostModel model(fleet, dim, workload,
                                         NetworkModel::pcie_peer(), options);
          const auto split = makespan_split(model);
          const auto uniform =
              uniform_partition_sizes(dim, model.num_workers());
          const std::string where =
              fleet_summary(fleet) + ", dim " + std::to_string(dim);
          ASSERT_EQ(split.size(), slots) << where;
          Index total = 0;
          for (const auto size : split) {
            EXPECT_GE(size, 1u) << where;
            total += size;
          }
          EXPECT_EQ(total, dim) << where;
          EXPECT_EQ(compute_makespan(model, split), exhaustive_makespan(model))
              << where;

          const auto plan = plan_placement(model, PlacementMode::kOptimize);
          EXPECT_LE(plan.predicted.total(), plan.uniform_predicted.total())
              << where;
          EXPECT_EQ(plan.optimized, plan.sizes != uniform) << where;
          if (homogeneous) {
            EXPECT_EQ(split, uniform) << where;
            EXPECT_EQ(plan.sizes, uniform) << where;
          }
          ++cases;
        }
      }
      // Next fleet: count `pick` up in base 4.
      std::size_t k = 0;
      while (k < slots && ++pick[k] == std::size(devices)) pick[k++] = 0;
      if (k == slots) break;
    }
  }
  EXPECT_EQ(cases, 2 * (16 * 15 + 64 * 14 + 256 * 13));
}

// ---- driver integration ---------------------------------------------------

DistConfig dist_config(const FleetSpec& fleet, PlacementMode mode,
                       bool overlap = false) {
  DistConfig config;
  config.formulation = core::Formulation::kDual;
  config.num_workers = fleet.empty() ? 4 : static_cast<int>(fleet.size());
  config.network = NetworkModel::pcie_peer();
  config.seed = 11;
  config.fleet = fleet;
  config.placement = mode;
  config.comm_overlap = overlap;
  return config;
}

TEST(DistPlacement, UniformFleetReproducesLegacyRunBitExactly) {
  const auto dataset = corpus();
  auto legacy = dist_config({}, PlacementMode::kUniform);
  legacy.local_solver.kind = core::SolverKind::kTpaTitanX;
  DistributedSolver baseline(dataset, legacy);

  const auto with_fleet =
      dist_config(parse_fleet_spec("4xtitanx"), PlacementMode::kUniform);
  DistributedSolver fleet_solver(dataset, with_fleet);
  ASSERT_NE(fleet_solver.placement_result(), nullptr);
  EXPECT_FALSE(fleet_solver.placement_result()->optimized);

  for (int epoch = 0; epoch < 4; ++epoch) {
    baseline.run_epoch();
    fleet_solver.run_epoch();
  }
  EXPECT_EQ(baseline.global_weights(), fleet_solver.global_weights());
  EXPECT_EQ(baseline.global_shared(), fleet_solver.global_shared());
}

TEST(DistPlacement, SamePlacementSeedSameRun) {
  const auto dataset = corpus();
  const auto fleet = parse_fleet_spec("2xtitanx,2xcpu:4");
  const auto config = dist_config(fleet, PlacementMode::kOptimize, true);
  DistributedSolver a(dataset, config);
  DistributedSolver b(dataset, config);
  ASSERT_NE(a.placement_result(), nullptr);
  ASSERT_NE(b.placement_result(), nullptr);
  EXPECT_EQ(a.placement_result()->sizes, b.placement_result()->sizes);
  for (int epoch = 0; epoch < 4; ++epoch) {
    a.run_epoch();
    b.run_epoch();
  }
  EXPECT_EQ(a.global_weights(), b.global_weights());
  EXPECT_EQ(a.global_shared(), b.global_shared());
}

TEST(DistPlacement, CheckpointResumePreservesThePlacedRun) {
  const auto dataset = corpus();
  const auto fleet = parse_fleet_spec("2xtitanx,2xcpu:4");
  const auto config = dist_config(fleet, PlacementMode::kOptimize, true);

  DistributedSolver straight(dataset, config);
  for (int epoch = 0; epoch < 6; ++epoch) straight.run_epoch();

  DistributedSolver first_leg(dataset, config);
  for (int epoch = 0; epoch < 3; ++epoch) first_leg.run_epoch();
  const auto saved = first_leg.checkpoint();

  DistributedSolver resumed(dataset, config);
  resumed.restore(saved, first_leg.checkpoint_state());
  EXPECT_EQ(resumed.partition().sizes(), straight.partition().sizes());
  for (int epoch = 0; epoch < 3; ++epoch) resumed.run_epoch();

  EXPECT_EQ(straight.global_weights(), resumed.global_weights());
  EXPECT_EQ(straight.global_shared(), resumed.global_shared());
}

TEST(DistPlacement, OverlapOnlyChangesTheClockNotTheMath) {
  // Uniform mode pins the partition, so the two arms run identical math and
  // differ only in how the round's network time is priced.  (In optimize
  // mode the overlap flag feeds the price the split must beat, so the arms
  // may legitimately choose different placements.)
  const auto dataset = corpus();
  const auto fleet = parse_fleet_spec("2xtitanx,2xcpu:4");
  DistributedSolver plain(
      dataset, dist_config(fleet, PlacementMode::kUniform, false));
  DistributedSolver overlapped(
      dataset, dist_config(fleet, PlacementMode::kUniform, true));
  double plain_total = 0.0;
  double overlapped_total = 0.0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    plain.run_epoch();
    overlapped.run_epoch();
    plain_total += plain.last_attribution().total();
    overlapped_total += overlapped.last_attribution().total();
  }
  EXPECT_EQ(plain.global_weights(), overlapped.global_weights());
  EXPECT_EQ(plain.global_shared(), overlapped.global_shared());
  EXPECT_LE(overlapped_total, plain_total * (1.0 + 1e-12));
}

TEST(DistPlacement, OverlapSavingsAreBoundedByTheTreeLatency) {
  // On a homogeneous fleet the arrivals are only as staggered as the random
  // deal's nnz variance, so streaming ingest can shave at most the tree's
  // pure-latency levels off the reduce — never the bandwidth term.
  const auto dataset = corpus();
  const auto fleet = parse_fleet_spec("4xtitanx");
  DistributedSolver plain(dataset,
                          dist_config(fleet, PlacementMode::kUniform, false));
  DistributedSolver overlapped(
      dataset, dist_config(fleet, PlacementMode::kUniform, true));
  plain.run_epoch();
  overlapped.run_epoch();
  const double saving = plain.last_attribution().network_seconds -
                        overlapped.last_attribution().network_seconds;
  EXPECT_GE(saving, 0.0);
  EXPECT_LE(saving, NetworkModel::pcie_peer().reduce_seconds(0, 4) + 1e-15);
  EXPECT_EQ(plain.global_weights(), overlapped.global_weights());
}

TEST(DistPlacement, FleetSizeMustMatchWorkerCount) {
  const auto dataset = corpus();
  auto config = dist_config(parse_fleet_spec("2xtitanx"),
                            PlacementMode::kUniform);
  config.num_workers = 4;
  EXPECT_THROW(DistributedSolver(dataset, config), std::invalid_argument);
}

TEST(AsyncPlacement, FleetRunsAndPlansDeterministically) {
  const auto dataset = corpus();
  AsyncConfig config;
  config.formulation = core::Formulation::kDual;
  config.num_workers = 4;
  config.network = NetworkModel::pcie_peer();
  config.seed = 21;
  config.fleet = parse_fleet_spec("2xtitanx,2xcpu:4");
  config.placement = PlacementMode::kOptimize;
  AsyncSolver a(dataset, config);
  AsyncSolver b(dataset, config);
  ASSERT_NE(a.placement_result(), nullptr);
  EXPECT_EQ(a.placement_result()->sizes, b.placement_result()->sizes);
  for (int epoch = 0; epoch < 3; ++epoch) {
    a.run_epoch();
    b.run_epoch();
  }
  EXPECT_EQ(a.global_weights(), b.global_weights());
  EXPECT_EQ(a.global_shared(), b.global_shared());
}

TEST(AsyncPlacement, UniformFleetReproducesLegacyRunBitExactly) {
  const auto dataset = corpus();
  AsyncConfig legacy;
  legacy.formulation = core::Formulation::kDual;
  legacy.num_workers = 4;
  legacy.network = NetworkModel::pcie_peer();
  legacy.seed = 21;
  legacy.local_solver.kind = core::SolverKind::kTpaTitanX;
  AsyncSolver baseline(dataset, legacy);

  AsyncConfig with_fleet = legacy;
  with_fleet.local_solver = {};
  with_fleet.fleet = parse_fleet_spec("4xtitanx");
  with_fleet.placement = PlacementMode::kUniform;
  AsyncSolver fleet_solver(dataset, with_fleet);

  for (int epoch = 0; epoch < 3; ++epoch) {
    baseline.run_epoch();
    fleet_solver.run_epoch();
  }
  EXPECT_EQ(baseline.global_weights(), fleet_solver.global_weights());
  EXPECT_EQ(baseline.global_shared(), fleet_solver.global_shared());
}

}  // namespace
}  // namespace tpa::cluster::placement
