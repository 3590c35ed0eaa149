// Serving load generator: requests/sec and tail latency vs. batch size and
// worker-thread count.
//
// Builds a webspam-like traffic matrix and a synthetic dense-weight model,
// then sweeps (threads × max-batch-size): for each cell a producer replays
// rows through the batching front end as fast as admission control allows
// (yield-and-retry on shed), and the row reports accepted-request
// throughput, mean realised batch size, shed count, and the p50/p95/p99
// enqueue-to-completion latency from the serving histogram.
//
// --repeat N sweeps every cell N times (repeat-major, so a burst of host
// load spreads over cells) and reports each cell's median, with the min and
// max of its req/s; --json-out writes the same figures with build and host
// provenance (BENCH_serve.json).
//
//   serve_throughput --examples 4096 --requests 50000 --csv
//   serve_throughput --repeat 5 --json-out BENCH_serve.json
#include <algorithm>
#include <cstdio>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "data/generators.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace tpa;

struct LoadResult {
  double requests_per_s = 0.0;
  double shed = 0.0;
  serve::StatsSnapshot stats;
};

// Keeps the compiler from optimising away the fetched predictions.
double benchmark_sink = 0.0;

LoadResult run_load(const sparse::CsrMatrix& matrix,
                    const core::SavedModel& model, std::size_t threads,
                    std::size_t max_batch, std::size_t requests) {
  serve::ServerConfig config;
  config.threads = threads;
  config.batcher.max_batch_size = max_batch;
  serve::Server server(config);
  server.publish(model);

  LoadResult result;
  std::vector<std::future<float>> predictions;
  predictions.reserve(requests);
  util::WallTimer timer;
  for (std::size_t i = 0; i < requests; ++i) {
    const auto row =
        matrix.row(static_cast<sparse::Index>(i % matrix.rows()));
    for (;;) {
      auto submitted = server.submit(row);
      if (submitted.accepted()) {
        predictions.push_back(std::move(submitted.prediction));
        break;
      }
      result.shed += 1.0;
      std::this_thread::yield();
    }
  }
  server.drain();
  result.requests_per_s = static_cast<double>(requests) / timer.seconds();
  for (auto& prediction : predictions) {
    benchmark_sink += prediction.get();
  }
  result.stats = server.stats();
  return result;
}

/// Median of `field` over one cell's repeats.
template <typename Field>
double median_of(const std::vector<LoadResult>& runs, Field field) {
  std::vector<double> values;
  for (const auto& run : runs) values.push_back(field(run));
  return util::median(values);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("serve_throughput",
                         "sweep serving throughput/latency vs batch size "
                         "and thread count");
  parser.add_option("examples", "traffic matrix rows", "4096");
  parser.add_option("features", "traffic matrix columns", "8192");
  parser.add_option("requests", "requests per sweep cell", "50000");
  parser.add_option("repeat", "sweeps; each cell reports its median", "1");
  parser.add_option("json-out", "write the cells as JSON here");
  parser.add_option("seed", "RNG seed", "42");
  parser.add_flag("csv", "emit CSV instead of the aligned table");
  if (!parser.parse(argc, argv)) return 1;
  util::set_log_level(util::LogLevel::kWarn);

  data::WebspamLikeConfig config;
  config.num_examples = parser.get_int<data::Index>("examples", 4096);
  config.num_features = parser.get_int<data::Index>("features", 8192);
  config.seed = parser.get_int<std::uint64_t>("seed", 42);
  const auto dataset = data::make_webspam_like(config);

  core::SavedModel model;
  model.formulation = core::Formulation::kPrimal;
  model.lambda = 1e-3;
  model.weights.resize(static_cast<std::size_t>(dataset.num_features()));
  for (std::size_t m = 0; m < model.weights.size(); ++m) {
    model.weights[m] = 0.01F * static_cast<float>(m % 101) - 0.5F;
  }

  const auto requests = parser.get_int<std::size_t>("requests", 50000);
  const auto repeat = std::max<std::size_t>(
      1, parser.get_int<std::size_t>("repeat", 1));
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  const std::vector<std::size_t> batch_sizes = {1, 16, 64, 256};

  // runs[cell] holds that cell's repeats; cells are thread-major.
  std::vector<std::vector<LoadResult>> runs(thread_counts.size() *
                                            batch_sizes.size());
  for (std::size_t rep = 0; rep < repeat; ++rep) {
    std::size_t cell = 0;
    for (const auto threads : thread_counts) {
      for (const auto max_batch : batch_sizes) {
        runs[cell++].push_back(run_load(dataset.by_row(), model, threads,
                                        max_batch, requests));
      }
    }
  }

  util::Table table({"threads", "max_batch", "req/s", "req/s_min",
                     "req/s_max", "mean_batch", "p50_us", "p95_us", "p99_us",
                     "shed"});
  std::vector<bench::BenchResult> results;
  std::size_t incomplete = 0;
  std::size_t cell = 0;
  for (const auto threads : thread_counts) {
    for (const auto max_batch : batch_sizes) {
      const auto& cell_runs = runs[cell++];
      std::vector<double> rps;
      for (const auto& run : cell_runs) {
        rps.push_back(run.requests_per_s);
        if (run.stats.completed != requests) ++incomplete;
      }
      const double rps_min = *std::min_element(rps.begin(), rps.end());
      const double rps_max = *std::max_element(rps.begin(), rps.end());
      bench::BenchResult result;
      result.name = "serve/t" + std::to_string(threads) + "/b" +
                    std::to_string(max_batch);
      result.value = util::median(rps);
      result.unit = "req_per_s";
      result.extra = {
          {"threads", static_cast<double>(threads)},
          {"max_batch", static_cast<double>(max_batch)},
          {"req_per_s_min", rps_min},
          {"req_per_s_max", rps_max},
          {"mean_batch", median_of(cell_runs,
                                   [](const LoadResult& r) {
                                     return r.stats.mean_batch_size;
                                   })},
          {"p50_us", median_of(cell_runs,
                               [](const LoadResult& r) {
                                 return r.stats.p50_us;
                               })},
          {"p95_us", median_of(cell_runs,
                               [](const LoadResult& r) {
                                 return r.stats.p95_us;
                               })},
          {"p99_us", median_of(cell_runs,
                               [](const LoadResult& r) {
                                 return r.stats.p99_us;
                               })},
          {"shed", median_of(cell_runs,
                             [](const LoadResult& r) { return r.shed; })},
      };
      table.begin_row();
      table.add_integer(static_cast<std::int64_t>(threads));
      table.add_integer(static_cast<std::int64_t>(max_batch));
      table.add_number(result.value);
      // The extras after threads and max_batch are the remaining columns.
      for (std::size_t i = 2; i < result.extra.size(); ++i) {
        table.add_number(result.extra[i].second);
      }
      results.push_back(std::move(result));
    }
  }
  if (parser.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::fprintf(stderr, "sink %.3f\n", benchmark_sink);

  if (parser.has("json-out")) {
    const bench::BenchMeta meta = {
        {"examples", std::to_string(config.num_examples)},
        {"features", std::to_string(config.num_features)},
        {"requests", std::to_string(requests)},
        {"repeat", std::to_string(repeat)},
    };
    const auto path = parser.get_string("json-out", "");
    bench::write_json_file(path, "serve", results, meta);
    std::printf("wrote %s\n", path.c_str());
  }
  if (incomplete > 0) {
    std::fprintf(stderr, "error: %zu runs completed fewer than %zu requests\n",
                 incomplete, requests);
    return 1;
  }
  return 0;
}
