// tpascd_serve — serve a trained model under a synthetic request stream.
//
// Loads a .tpam model (see tpascd_train --save) into the serving subsystem,
// replays the rows of a dataset as single-row scoring requests through the
// batching front end, and reports a serving-stats snapshot: throughput,
// batch coalescing, and p50/p95/p99 latency.  --reload publishes a second
// model mid-stream to exercise atomic hot-reload under load.
//
// Examples:
//   tpascd_train --generate webspam --save model.tpam
//   tpascd_serve --model model.tpam --generate webspam --requests 20000
//   tpascd_serve --model v1.tpam --reload v2.tpam --data traffic.svm
#include <cstdio>
#include <future>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.hpp"
#include "obs/json.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "serve/scorer.hpp"
#include "serve/server.hpp"
#include "sparse/io_binary.hpp"
#include "sparse/load.hpp"
#include "run_report.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace {

using namespace tpa;

data::Dataset load_traffic(const util::ArgParser& parser) {
  const auto path = parser.get_string("data", "");
  if (!path.empty()) {
    const auto features = parser.get_int<data::Index>("num-features", 0);
    sparse::LabeledMatrix loaded = sparse::load_labeled_file(path, features);
    return data::Dataset(path, std::move(loaded.matrix),
                         std::move(loaded.labels));
  }
  const auto examples = parser.get_int<data::Index>("examples", 4096);
  const auto seed = parser.get_int<std::uint64_t>("seed", 42);
  if (parser.get_string("generate", "webspam") == "criteo") {
    data::CriteoLikeConfig config;
    config.num_examples = examples;
    config.seed = seed;
    return data::make_criteo_like(config);
  }
  data::WebspamLikeConfig config;
  config.num_examples = examples;
  config.num_features = parser.get_int<data::Index>("features", 2 * examples);
  config.seed = seed;
  return data::make_webspam_like(config);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("tpascd_serve",
                         "replay dataset rows as a request stream against a "
                         "served model and report latency/throughput");
  parser.add_option("model", "trained .tpam model to serve (required)");
  parser.add_option("reload", "second .tpam published mid-stream (hot reload)");
  parser.add_option("data", "svmlight/.bin dataset to replay (omit to generate)");
  parser.add_option("num-features", "force feature count for svmlight", "0");
  parser.add_option("generate", "webspam | criteo (when --data absent)",
                    "webspam");
  parser.add_option("examples", "generated example count", "4096");
  parser.add_option("features", "generated feature count", "2x examples");
  parser.add_option("seed", "RNG seed", "42");
  parser.add_option("requests", "requests to replay", "10000");
  parser.add_option("threads", "scoring worker threads", "4");
  parser.add_option("batch", "max batch size", "64");
  parser.add_option("queue", "admission queue capacity", "1024");
  parser.add_option("log-every", "log stats every N batches (0 = off)", "0");
  parser.add_option("trace-out",
                    "write a Chrome trace of serve/batch + serve/reload "
                    "spans here (Perfetto-loadable JSON)");
  parser.add_option("metrics-out",
                    "write a JSONL run report here (build meta, serving "
                    "stats, metric snapshot)");
  parser.add_option("log", "log level: debug|info|warn|error", "info");
  if (!parser.parse(argc, argv)) return 1;
  util::set_log_level(util::parse_log_level(parser.get_string("log", "info")));

  const auto trace_out = parser.get_string("trace-out", "");
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  if (!parser.has("model")) {
    std::fprintf(stderr, "error: --model is required\n%s",
                 parser.usage().c_str());
    return 1;
  }

  try {
    const auto dataset = load_traffic(parser);
    const auto& matrix = dataset.by_row();

    serve::ServerConfig config;
    config.threads = parser.get_int<std::size_t>("threads", 4);
    config.batcher.max_batch_size = parser.get_int<std::size_t>("batch", 64);
    config.batcher.queue_capacity = parser.get_int<std::size_t>("queue", 1024);
    config.log_every_batches = parser.get_int<std::uint64_t>("log-every", 0);
    serve::Server server(config);

    const auto version = server.reload(parser.get_string("model", ""));
    const auto model = server.registry().current();
    std::printf("serving model v%llu: %zu features (%s-trained, lambda %.3g)\n",
                static_cast<unsigned long long>(version),
                model->num_features(),
                formulation_name(model->trained_as), model->lambda);

    // Offline sanity pass: bulk-score the whole matrix through the chunked
    // parallel scorer and report raw engine throughput without batching.
    util::WallTimer bulk_timer;
    const auto bulk = serve::score_matrix(server.pool(), matrix, *model);
    std::printf("bulk scoring: %u rows in %.3f ms (%.0f rows/s)\n",
                matrix.rows(), 1e3 * bulk_timer.seconds(),
                static_cast<double>(matrix.rows()) / bulk_timer.seconds());

    const auto total = parser.get_int<std::size_t>("requests", 10000);
    const std::size_t reload_at =
        parser.has("reload") ? total / 2 : total + 1;
    std::vector<std::future<float>> predictions;
    predictions.reserve(total);
    std::uint64_t shed = 0;

    util::WallTimer replay_timer;
    for (std::size_t i = 0; i < total; ++i) {
      // Long replays can wrap the trace ring many times over; the warning is
      // rate-limited (doubling threshold), so polling per chunk is cheap and
      // surfaces the overflow while the run is still going.
      if (i % 4096 == 0 && i > 0) {
        tools::warn_if_trace_dropped("tpascd_serve");
      }
      if (i == reload_at) {
        const auto v2 = server.reload(parser.get_string("reload", ""));
        std::printf("hot-reloaded model v%llu at request %zu\n",
                    static_cast<unsigned long long>(v2), i);
      }
      const auto row =
          matrix.row(static_cast<sparse::Index>(i % matrix.rows()));
      for (;;) {
        auto result = server.submit(row);
        if (result.accepted()) {
          predictions.push_back(std::move(result.prediction));
          break;
        }
        // Queue full: admission control shed the request.  A real client
        // would back off; the replay yields and retries so every request
        // is eventually scored.
        ++shed;
        std::this_thread::yield();
      }
    }
    server.drain();
    const double replay_seconds = replay_timer.seconds();

    double sum = 0.0;
    for (auto& prediction : predictions) sum += prediction.get();
    const auto stats = server.stats();
    std::printf("replayed %zu requests in %.3f s (%.0f req/s end-to-end, "
                "%llu shed-and-retried)\n",
                total, replay_seconds,
                static_cast<double>(total) / replay_seconds,
                static_cast<unsigned long long>(shed));
    const auto trace_dropped = tools::warn_if_trace_dropped("tpascd_serve");
    if (trace_dropped > 0) {
      std::printf("stats: %s, trace dropped %llu spans (cumulative)\n",
                  stats.summary().c_str(),
                  static_cast<unsigned long long>(trace_dropped));
    } else {
      std::printf("stats: %s\n", stats.summary().c_str());
    }
    std::printf("mean prediction %.6f\n",
                sum / static_cast<double>(predictions.size()));
    if (stats.throughput_rps <= 0.0 || stats.p99_us <= 0.0) {
      std::fprintf(stderr, "error: empty stats snapshot\n");
      return 1;
    }
    if (!trace_out.empty()) {
      // The scoring pool has been drained, so the export sees quiesced
      // rings (the tracer's contract).
      obs::write_chrome_trace(trace_out);
      std::printf("Chrome trace (%llu spans) written to %s\n",
                  static_cast<unsigned long long>(
                      obs::trace_events_recorded()),
                  trace_out.c_str());
    }
    if (parser.has("metrics-out")) {
      const auto path = parser.get_string("metrics-out", "");
      sparse::commit_file(path, "run report", [&](std::ostream& out) {
        out << tools::run_meta_json("tpascd_serve") << '\n';
        out << obs::JsonObject()
                   .field_str("type", "serve_stats")
                   .field_uint("accepted", stats.accepted)
                   .field_uint("rejected", stats.rejected)
                   .field_uint("completed", stats.completed)
                   .field_uint("batches", stats.batches)
                   .field_uint("reloads", stats.reloads)
                   .field_num("wall_seconds", stats.wall_seconds)
                   .field_num("throughput_rps", stats.throughput_rps)
                   .field_num("mean_batch_size", stats.mean_batch_size)
                   .field_num("p50_us", stats.p50_us)
                   .field_num("p95_us", stats.p95_us)
                   .field_num("p99_us", stats.p99_us)
                   .field_uint("trace_events_dropped", trace_dropped)
                   .str()
            << '\n';
        obs::metrics().write_jsonl(out);
      });
      std::printf("run report written to %s\n", path.c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
