// Reproduces Fig. 10: training on the 40 GB one-day criteo sample (200 M
// examples, 75 M features, all matrix values 1.0) with K = 4 workers, dual
// form.  Three schemes:
//   * distributed SCD, single-threaded sequential local solvers;
//   * distributed PASSCoDe-Wild, 16 threads per worker;
//   * distributed TPA-SCD on Titan X GPUs with adaptive aggregation.
//
// Paper shapes: TPA-SCD reaches small duality gaps ≈40x faster than
// single-threaded SCD and ≈20x faster than PASSCoDe-Wild; the Wild variant
// converges to a nonzero gap floor (violated optimality conditions).
//
// The capacity story of Section V is also checked: at paper scale the
// sample does NOT fit in one Titan X's 12 GB, but a quarter of it does —
// the TPA workers charge paper-scale bytes against simulated device memory.
#include "bench_common.hpp"

#include <filesystem>

#include "cluster/dist_solver.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_memory.hpp"
#include "sparse/matrix_stats.hpp"
#include "store/format.hpp"
#include "store/shard_reader.hpp"
#include "store/streaming_dataset.hpp"
#include "store/streaming_solver.hpp"

int main(int argc, char** argv) {
  using namespace tpa;

  util::ArgParser parser("fig10_criteo_large",
                         "Fig. 10 — large-scale criteo sample, K = 4 workers");
  bench::add_common_options(parser);
  parser.add_option("fields", "one-hot categorical fields per example", "24");
  parser.add_option("buckets", "hash buckets per field", "512");
  parser.add_option("record", "record gap every R epochs", "2");
  parser.add_option("eps", "gap level for the speed-up checks", "1e-4");
  parser.add_option("store-dir", "directory for the out-of-core arm's store",
                    "fig10_criteo_store");
  if (!parser.parse(argc, argv)) return 1;
  auto options = bench::read_common_options(parser);
  options.max_epochs = static_cast<int>(parser.get_int("epochs", 120));
  const auto record = static_cast<int>(parser.get_int("record", 2));
  const double eps = parser.get_double("eps", 1e-4);

  data::CriteoLikeConfig config;
  config.num_examples = static_cast<data::Index>(
      parser.get_int("examples", 32768));
  config.num_fields =
      static_cast<data::Index>(parser.get_int("fields", 24));
  config.buckets_per_field =
      static_cast<data::Index>(parser.get_int("buckets", 512));
  config.seed = options.seed;
  const auto dataset = data::make_criteo_like(config);
  std::cerr << "# dataset " << dataset.name() << ": "
            << sparse::compute_stats(dataset.by_row()).summary() << "\n";

  // --- The Section V capacity argument at paper scale. ---
  const auto& scale = *dataset.paper_scale();
  const auto paper_bytes = static_cast<std::size_t>(scale.nnz) * 8;
  const auto titan = gpusim::DeviceSpec::titan_x();
  std::cout << "paper-scale sample: "
            << static_cast<double>(paper_bytes) / (1024.0 * 1024 * 1024)
            << " GiB; fits one " << titan.name << " ("
            << static_cast<double>(titan.mem_capacity_bytes) /
                   (1024.0 * 1024 * 1024)
            << " GiB)? " << (titan.fits(paper_bytes) ? "yes" : "no")
            << "; fits across 4? "
            << (titan.fits(paper_bytes / 4) ? "yes" : "no") << "\n";

  struct Scheme {
    const char* name;
    core::SolverKind kind;
    cluster::AggregationMode aggregation;
  };
  const Scheme schemes[] = {
      {"SCD (1 thread)", core::SolverKind::kSequential,
       cluster::AggregationMode::kAveraging},
      {"PASSCoDe (16 threads)", core::SolverKind::kAsyncWild,
       cluster::AggregationMode::kAveraging},
      {"TPA-SCD (Titan X)", core::SolverKind::kTpaTitanX,
       cluster::AggregationMode::kAdaptive},
  };

  std::vector<core::ConvergenceTrace> traces;
  for (const auto& scheme : schemes) {
    cluster::DistConfig dist;
    dist.formulation = core::Formulation::kDual;
    dist.num_workers = 4;
    dist.aggregation = scheme.aggregation;
    dist.local_solver.kind = scheme.kind;
    dist.local_solver.charge_paper_scale_memory = true;
    dist.network = cluster::NetworkModel::pcie_peer();
    dist.lambda = options.lambda;
    dist.seed = options.seed;
    cluster::DistributedSolver solver(dataset, dist);
    core::RunOptions run_options;
    run_options.max_epochs = options.max_epochs;
    run_options.record_interval = record;
    traces.push_back(cluster::run_distributed(solver, run_options));
    std::cerr << "# " << scheme.name << ": final gap "
              << util::Table::format_number(traces.back().final_gap())
              << "\n";
  }

  std::cout << "\n== Fig. 10: duality gap vs simulated time (s), dual form, "
               "K=4 ==\n";
  util::Table table({"epoch", "SCD time", "SCD gap", "Wild time", "Wild gap",
                     "TPA time", "TPA gap"});
  for (std::size_t row = 0; row < traces[0].points().size(); ++row) {
    table.begin_row();
    table.add_integer(traces[0].points()[row].epoch);
    for (const auto& trace : traces) {
      if (row < trace.points().size()) {
        table.add_number(trace.points()[row].sim_seconds);
        table.add_number(trace.points()[row].gap);
      } else {
        table.add_cell("-");
        table.add_cell("-");
      }
    }
  }
  bench::emit(table, options);

  const auto t_seq = traces[0].sim_time_to_gap(eps);
  const auto t_tpa = traces[2].sim_time_to_gap(eps);
  if (t_seq.has_value() && t_tpa.has_value() && *t_tpa > 0) {
    bench::shape_check("TPA-SCD speed-up over distributed 1-thread SCD",
                       *t_seq / *t_tpa, "~40x");
  }
  // PASSCoDe-Wild's floor usually sits above eps, so compare at the gap the
  // Wild run *can* reach; the paper compares where both curves exist.
  const double wild_floor = traces[1].final_gap();
  const auto t_wild = traces[1].sim_time_to_gap(wild_floor * 1.5);
  const auto t_tpa_at_floor = traces[2].sim_time_to_gap(wild_floor * 1.5);
  if (t_wild.has_value() && t_tpa_at_floor.has_value() &&
      *t_tpa_at_floor > 0) {
    bench::shape_check("TPA-SCD speed-up over PASSCoDe-Wild (at Wild's floor)",
                       *t_wild / *t_tpa_at_floor, "~20x");
  }
  bench::shape_check("PASSCoDe-Wild gap floor", wild_floor,
                     "nonzero (optimality violated)");

  // --- Out-of-core arm (Section V): the paper-scale sample is 40 GB, so
  // real training streams shards through a resident window.  Convert the
  // bench sample to an on-disk store and run the streaming dual solver to
  // report what the prefetch pipeline hides. ---
  const auto store_dir = parser.get_string("store-dir", "fig10_criteo_store");
  std::filesystem::create_directories(store_dir);
  sparse::LabeledMatrix data{
      dataset.by_row(),
      std::vector<float>(dataset.labels().begin(), dataset.labels().end())};
  store::write_store(store_dir, "criteo", data, 8);
  store::StoreStreamingDataset streamed(store::ShardReader::open(
      store_dir + "/criteo.manifest"));
  store::StreamingConfig streaming_config;
  streaming_config.lambda = options.lambda;
  streaming_config.seed = options.seed;
  store::StreamingScdSolver streaming(streamed, streaming_config);
  for (int epoch = 0; epoch < 4; ++epoch) streaming.run_epoch();
  const auto prefetch = streaming.prefetch_stats();
  const double streamed_gap = streaming.duality_gap();
  std::cout << "out-of-core (8 shards, double-buffered): gap "
            << util::Table::format_number(streamed_gap) << " after 4 epochs; "
            << "store.prefetch_stalls " << prefetch.stalls << "/"
            << prefetch.loads << " loads, I/O-overlap "
            << util::Table::format_number(100.0 *
                                          prefetch.overlap_fraction())
            << "%\n";
  return 0;
}
