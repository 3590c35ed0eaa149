// Fig. 10 companion: out-of-core streaming on a criteo-class workload.
//
// The paper's Section V capacity argument is that the 40 GB one-day sample
// cannot sit in one device's memory — training must stream shards through
// a fixed resident budget.  This bench reproduces that regime end-to-end
// on a generated webspam-like matrix (wide feature space, so the shared
// vector w̄ dominates the cache and sweeps are genuinely memory-bound):
//
//   1. converts the dataset to an on-disk shard store,
//   2. trains with a hard resident budget (resident_shards decoded shards,
//      far below the full matrix),
//   3. compares three arms — synchronous loads (no overlap control),
//      double-buffered prefetch, and a deeper window — against an
//      in-memory run for bit-exactness,
//   4. reports prefetch loads / stalls / overlap fraction and writes the
//      machine-readable BENCH_streaming.json artefact.
//
// Expected shapes: streamed α identical to in-memory α (bit-exact by
// construction), sync overlap exactly 0, double-buffered prefetch hiding
// >= 50% of shard load time behind the sweeps.
#include "bench_common.hpp"
#include "bench_json.hpp"

#include <cmath>
#include <filesystem>

#include "data/dataset.hpp"
#include "obs/metrics_registry.hpp"
#include "sparse/matrix_stats.hpp"
#include "store/format.hpp"
#include "store/prefetch.hpp"
#include "store/shard_reader.hpp"
#include "store/streaming_dataset.hpp"
#include "store/streaming_solver.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace tpa;

  util::ArgParser parser("fig10_streaming",
                         "out-of-core shard streaming with double-buffered "
                         "prefetch (Fig. 10 / Section V capacity regime)");
  bench::add_common_options(parser);
  parser.add_option("shards", "shard count for the store", "8");
  parser.add_option("resident",
                    "decoded shards resident at once (2 = double buffer)",
                    "2");
  parser.add_option("store-dir", "directory for the on-disk store",
                    "fig10_streaming_store");
  parser.add_option("json-out", "machine-readable results artefact",
                    "BENCH_streaming.json");
  if (!parser.parse(argc, argv)) return 1;
  auto options = bench::read_common_options(parser);
  // Defaults put each shard's feature footprint well past the last-level
  // cache: sweeps are memory-bound, which is exactly when prefetch has
  // something to hide behind.
  options.examples = static_cast<data::Index>(
      parser.get_int("examples", 131072));
  options.features = static_cast<data::Index>(
      parser.get_int("features", 1 << 23));
  options.max_epochs = static_cast<int>(parser.get_int("epochs", 3));
  const auto shards =
      static_cast<std::uint64_t>(parser.get_int("shards", 8));
  const auto resident =
      static_cast<std::size_t>(parser.get_int("resident", 2));
  const auto store_dir = parser.get_string("store-dir",
                                           "fig10_streaming_store");

  // Wide feature space with near-uniform popularity and independent draws:
  // w̄ far exceeds the cache and every sweep access is a genuine memory
  // miss — the regime where shard compute can actually hide shard I/O
  // (clustered webspam-style features would make the sweep artificially
  // cache-friendly and understate what prefetch buys at Criteo scale).
  data::WebspamLikeConfig generator;
  generator.num_examples = options.examples;
  generator.num_features = options.features;
  generator.seed = options.seed;
  generator.zipf_exponent = 0.2;
  generator.feature_run_length = 1.0;
  const auto dataset = data::make_webspam_like(generator);
  std::cerr << "# dataset " << dataset.name() << ": "
            << sparse::compute_stats(dataset.by_row()).summary() << "\n";
  sparse::LabeledMatrix data{
      dataset.by_row(),
      std::vector<float>(dataset.labels().begin(), dataset.labels().end())};

  // --- 1. Convert to the on-disk store. ---
  std::filesystem::create_directories(store_dir);
  const util::WallTimer convert_timer;
  const auto manifest = store::write_store(store_dir, "fig10", data, shards);
  std::cerr << "# store: " << manifest.shards.size() << " shards, "
            << manifest.nnz << " nnz, converted in "
            << convert_timer.seconds() << " s\n";
  store::StoreStreamingDataset disk(store::ShardReader::open(
      store_dir + "/fig10.manifest"));

  // --- 2. The hard resident budget. ---
  const std::size_t full_bytes = dataset.resident_bytes();
  std::size_t max_shard_bytes = 0;
  for (std::size_t s = 0; s < disk.num_shards(); ++s) {
    max_shard_bytes = std::max(
        max_shard_bytes, store::decode_shard(disk, s).dataset.resident_bytes());
  }
  const std::size_t budget_bytes = resident * max_shard_bytes;
  const double budget_fraction =
      static_cast<double>(budget_bytes) / static_cast<double>(full_bytes);
  std::cout << "resident budget: " << resident << " x "
            << static_cast<double>(max_shard_bytes) / (1024.0 * 1024)
            << " MiB shards = "
            << static_cast<double>(budget_bytes) / (1024.0 * 1024)
            << " MiB vs " << static_cast<double>(full_bytes) / (1024.0 * 1024)
            << " MiB fully resident ("
            << 100.0 * budget_fraction << "%)\n";

  // --- 3. The arms.  Stats are snapshotted before the gap evaluation so
  // loads/stalls describe exactly epochs * shards training sweeps. ---
  struct Arm {
    const char* name;
    const store::StreamingDataset* source;
    bool async;
    std::size_t resident;
    double wall_seconds = 0.0;
    double gap = 0.0;
    store::PrefetchStats stats;
    std::vector<float> alpha;
  };
  store::MemoryShardedDataset memory(dataset.name(), data, shards);
  auto make_arm = [](const char* name, const store::StreamingDataset* source,
                     bool async, std::size_t window) {
    Arm arm;
    arm.name = name;
    arm.source = source;
    arm.async = async;
    arm.resident = window;
    return arm;
  };
  std::vector<Arm> arms{
      make_arm("sync loads (control)", &disk, false, resident),
      make_arm("double-buffered prefetch", &disk, true, resident),
      make_arm("deeper window", &disk, true, resident + 1),
      make_arm("in-memory shards", &memory, true, resident),
  };

  auto& bytes_counter = obs::metrics().counter("store.bytes_read");
  const auto bytes_before = bytes_counter.value();
  for (auto& arm : arms) {
    store::StreamingConfig config;
    config.lambda = options.lambda;
    config.seed = options.seed;
    config.async_prefetch = arm.async;
    config.resident_shards = arm.resident;
    store::StreamingScdSolver solver(*arm.source, config);
    const util::WallTimer timer;
    for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
      solver.run_epoch();
    }
    arm.wall_seconds = timer.seconds();
    arm.stats = solver.prefetch_stats();
    arm.gap = solver.duality_gap();
    arm.alpha.assign(solver.alpha().begin(), solver.alpha().end());
    std::cerr << "# " << arm.name << ": " << arm.wall_seconds << " s, gap "
              << util::Table::format_number(arm.gap) << "\n";
  }
  const auto bytes_read = bytes_counter.value() - bytes_before;

  std::cout << "\n== Fig. 10 streaming: " << options.max_epochs
            << " epochs, " << manifest.shards.size() << " shards, resident "
            << resident << " ==\n";
  util::Table table({"arm", "wall s", "s/epoch", "loads", "stalls", "load s",
                     "wait s", "overlap"});
  for (const auto& arm : arms) {
    table.begin_row();
    table.add_cell(arm.name);
    table.add_number(arm.wall_seconds);
    table.add_number(arm.wall_seconds / options.max_epochs);
    table.add_integer(static_cast<long long>(arm.stats.loads));
    table.add_integer(static_cast<long long>(arm.stats.stalls));
    table.add_number(arm.stats.load_seconds);
    table.add_number(arm.stats.wait_seconds);
    table.add_cell(util::Table::format_number(
                       100.0 * arm.stats.overlap_fraction()) + "%");
  }
  bench::emit(table, options);

  // --- 4. Shape checks. ---
  double max_alpha_diff = 0.0;
  for (std::size_t i = 0; i < arms[1].alpha.size(); ++i) {
    max_alpha_diff = std::max(
        max_alpha_diff,
        static_cast<double>(std::fabs(arms[1].alpha[i] - arms[3].alpha[i])));
  }
  bench::shape_check("streamed vs in-memory max |Δα|", max_alpha_diff,
                     "0 (bit-exact by construction)");
  bench::shape_check("sync-load overlap fraction",
                     arms[0].stats.overlap_fraction(), "0 (nothing hidden)");
  bench::shape_check("double-buffered overlap fraction",
                     arms[1].stats.overlap_fraction(), ">= 0.5");
  bench::shape_check("resident budget vs fully in-memory", budget_fraction,
                     "< 1 (out-of-core regime)");

  const auto json_out = parser.get_string("json-out", "BENCH_streaming.json");
  if (!json_out.empty()) {
    std::vector<bench::BenchResult> results;
    for (const auto& arm : arms) {
      bench::BenchResult result;
      result.name = std::string("streaming/") + arm.name;
      result.value = arm.stats.overlap_fraction();
      result.unit = "overlap_fraction";
      result.extra = {
          {"wall_seconds", arm.wall_seconds},
          {"loads", static_cast<double>(arm.stats.loads)},
          {"stalls", static_cast<double>(arm.stats.stalls)},
          {"load_seconds", arm.stats.load_seconds},
          {"wait_seconds", arm.stats.wait_seconds},
          {"final_gap", arm.gap},
      };
      results.push_back(std::move(result));
    }
    bench::BenchResult exactness;
    exactness.name = "streaming/max_alpha_diff";
    exactness.value = max_alpha_diff;
    exactness.unit = "abs_diff";
    results.push_back(std::move(exactness));
    bench::BenchResult budget;
    budget.name = "streaming/resident_budget";
    budget.value = budget_fraction;
    budget.unit = "fraction_of_full";
    budget.extra = {
        {"budget_bytes", static_cast<double>(budget_bytes)},
        {"full_bytes", static_cast<double>(full_bytes)},
        {"bytes_read", static_cast<double>(bytes_read)},
    };
    results.push_back(std::move(budget));
    bench::write_json_file(
        json_out, "fig10_streaming", results,
        {{"shards", std::to_string(manifest.shards.size())},
         {"resident", std::to_string(resident)},
         {"examples", std::to_string(options.examples)},
         {"features", std::to_string(options.features)},
         {"epochs", std::to_string(options.max_epochs)}});
    std::cerr << "# results written to " << json_out << "\n";
  }
  return 0;
}
