// serve_closed: a closed loop.  One generator thread (the caller) keeps a
// fixed number of requests outstanding against a serve::Server and times
// each one from submit to future ready.
#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/model_io.hpp"
#include "data/generators.hpp"
#include "serve/scorer.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace wallbench {
namespace {

using namespace tpa;

struct ServeSpec {
  data::Index rows = 16384;      // traffic rows, replayed round-robin
  data::Index features = 65536;  // model width
  std::size_t outstanding = 16;  // requests in flight (closed loop)
  std::size_t pool_threads = 2;  // server pool workers
};

ServeSpec spec_for(const Options& options) {
  ServeSpec spec;
  if (options.tiny) {
    spec.rows = 1024;
    spec.features = 4096;
  }
  return spec;
}

/// The traffic matrix, the published weights and the reference scores.
struct Traffic {
  std::optional<data::Dataset> dataset;
  core::SavedModel model;
  std::vector<float> expected;  // serve::score_row on the published weights

  const sparse::CsrMatrix& matrix() const { return dataset->by_row(); }
};

Traffic make_traffic(const ServeSpec& spec, std::uint64_t seed) {
  Traffic traffic;
  data::WebspamLikeConfig config;
  config.num_examples = spec.rows;
  config.num_features = spec.features;
  config.seed = seed;
  traffic.dataset.emplace(data::make_webspam_like(config));
  util::Rng rng(seed ^ 0x5e7e5eedULL);
  traffic.model.formulation = core::Formulation::kPrimal;
  traffic.model.lambda = 1e-3;
  traffic.model.weights.resize(spec.features);
  for (auto& w : traffic.model.weights) {
    w = static_cast<float>(rng.normal());
  }
  return traffic;
}

std::unique_ptr<serve::Server> make_server(const ServeSpec& spec,
                                           const Traffic& traffic) {
  serve::ServerConfig config;
  config.threads = spec.pool_threads;  // default batcher: 64 rows, 200 µs
  auto server = std::make_unique<serve::Server>(config);
  server->publish(traffic.model);
  return server;
}

/// Set-ups before the load phase, and again after it; setup_s is the
/// fastest of all of them.  Their median moved 26% between two sets of runs
/// of identical code as the host's other load came and went; a set-up is
/// deterministic work, which that load can only slow.
constexpr int kSetupReps = 7;

struct Setup {
  Traffic traffic;
  std::unique_ptr<serve::Server> server;
  std::vector<double> generate_s;
  std::vector<double> build_s;
  std::vector<double> total_s;
  double heap_mb = 0.0;  // most heap in use after a set-up or the warm-up
};

/// Times `reps` set-ups: traffic and weight generation plus Server
/// construction and publish.  The last one's traffic and server stay in
/// `setup`.
void time_set_ups(const ServeSpec& spec, const Options& options, int reps,
                  Setup& setup) {
  for (int rep = 0; rep < reps; ++rep) {
    setup.server.reset();
    setup.traffic = Traffic{};
    const auto start = Clock::now();
    setup.traffic = make_traffic(spec, options.seed);
    const double generated = seconds_since(start);
    setup.server = make_server(spec, setup.traffic);
    const double total = seconds_since(start);
    setup.generate_s.push_back(generated);
    setup.build_s.push_back(total - generated);
    setup.total_s.push_back(total);
    setup.heap_mb = std::max(setup.heap_mb, live_heap_mb());
  }
}

Setup set_up(const ServeSpec& spec, const Options& options, int reps) {
  Setup setup;
  time_set_ups(spec, options, reps, setup);
  const auto& matrix = setup.traffic.matrix();
  const auto& weights = setup.traffic.model.weights;
  for (data::Index r = 0; r < matrix.rows(); ++r) {
    setup.traffic.expected.push_back(
        static_cast<float>(serve::score_row(matrix.row(r), weights)));
  }
  return setup;
}

/// Per-request latencies and per-pass times of one closed-loop phase.
struct Load {
  std::vector<double> latency_s;  // submit → future ready
  std::vector<double> pass_s;     // one round-robin pass over the traffic
  std::uint64_t completed = 0;
  double wall_s = 0.0;
};

/// Runs the closed loop until `max_requests` were submitted or `deadline`
/// passed, then drains.  Every prediction is checked bit-for-bit against
/// serve::score_row on the published weights; a shed, failed or wrong
/// request counts as failed.
Load run_load(serve::Server& server, const ServeSpec& spec,
              const Traffic& traffic, std::uint64_t max_requests,
              Clock::time_point deadline, const Options& options,
              Outcome& outcome) {
  struct InFlight {
    std::future<float> prediction;
    Clock::time_point submitted;
    data::Index row = 0;
  };
  const auto& matrix = traffic.matrix();
  const auto rows = static_cast<std::uint64_t>(matrix.rows());
  Load load;
  std::deque<InFlight> inflight;
  std::uint64_t submitted = 0;
  const auto submit = [&] {
    const auto row = static_cast<data::Index>(submitted % rows);
    ++submitted;
    ++outcome.attempted;
    const auto start = Clock::now();
    auto result = server.submit(matrix.row(row));
    if (!result.accepted()) {
      outcome.fail(std::string("request shed: ") +
                   serve::admission_name(result.status));
      return;
    }
    inflight.push_back({std::move(result.prediction), start, row});
  };
  const auto more = [&] {
    return submitted < max_requests && Clock::now() < deadline;
  };

  const auto start = Clock::now();
  auto pass_start = start;
  while (inflight.size() < spec.outstanding && more()) submit();
  while (!inflight.empty()) {
    auto& head = inflight.front();
    float value = 0.0F;
    try {
      value = head.prediction.get();
    } catch (const std::exception& error) {
      outcome.fail(std::string("request failed: ") + error.what());
      inflight.pop_front();
      if (more()) submit();
      continue;
    }
    const auto ready = Clock::now();
    load.latency_s.push_back(
        std::chrono::duration<double>(ready - head.submitted).count());
    if (options.perturb == "prediction" && load.completed == 0) {
      value = std::nextafter(value, INFINITY);
    }
    if (std::bit_cast<std::uint32_t>(value) !=
        std::bit_cast<std::uint32_t>(traffic.expected[head.row])) {
      outcome.fail("prediction for row " + std::to_string(head.row) +
                   " differs from score_row");
    }
    if (++load.completed % rows == 0) {
      load.pass_s.push_back(
          std::chrono::duration<double>(ready - pass_start).count());
      pass_start = ready;
    }
    inflight.pop_front();
    if (more()) submit();
  }
  load.wall_s = seconds_since(start);
  return load;
}

double median_score_ns_per_nnz(serve::Server& server, const Traffic& traffic) {
  const auto model = server.registry().current();
  const auto& matrix = traffic.matrix();
  std::vector<float> out(matrix.rows());
  const double seconds = median_seconds(9, [&] {
    serve::score_matrix(server.pool(), matrix, *model, out);
    keep(out[0]);
  });
  return seconds * 1e9 / static_cast<double>(matrix.nnz());
}

void run_traced(const ServeSpec& spec, const Options& options, Setup& setup,
                Outcome& outcome) {
  auto& server = *setup.server;
  const auto never = Clock::time_point::max();
  const auto rows = static_cast<std::uint64_t>(spec.rows);
  run_load(server, spec, setup.traffic, rows / 4, never, options, outcome);

  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> traced_latency;
  SpanTable spans;
  std::uint64_t dropped = 0;
  const auto deadline = deadline_after(options.seconds);
  // One pass untraced, one traced, alternating until the window closes.
  while (traced_s.empty() || Clock::now() < deadline) {
    for (const bool traced : {false, true}) {
      if (traced) begin_traced_section();
      const auto load = run_load(server, spec, setup.traffic, rows, never,
                                 options, outcome);
      if (traced) {
        dropped += end_traced_section();
        spans.merge(SpanTable::collect());
        traced_latency.insert(traced_latency.end(), load.latency_s.begin(),
                              load.latency_s.end());
      }
      (traced ? traced_s : untraced_s).push_back(load.wall_s);
    }
  }

  double batched_request_ms = 0.0;  // Σ batch duration × requests in it
  for (const auto& span : spans.spans("serve/batch")) {
    batched_request_ms += span.ms * static_cast<double>(span.arg);
  }
  const double request_ms = sum(traced_latency) * 1e3;
  const double batch_p50_ms = median(spans.durations_ms("serve/batch"));
  const auto stats = server.stats();

  outcome.add("data.generate_s", min_of(setup.generate_s));
  outcome.add("serve.build_s", min_of(setup.build_s));
  outcome.add("serve.batch_ms.p50", batch_p50_ms);
  outcome.add("serve.batch_share",
              batch_p50_ms / (median(traced_latency) * 1e3));
  outcome.add("serve.mean_batch_size", stats.mean_batch_size);
  outcome.add("serve.rejected", static_cast<double>(stats.rejected));
  outcome.add("serve.score_ns_per_nnz",
              median_score_ns_per_nnz(server, setup.traffic));
  outcome.add("obs.trace_overhead",
              median(traced_s) / median(untraced_s) - 1.0);
  outcome.add("obs.trace_dropped", static_cast<double>(dropped));
  // Share of request time spent outside any serve/batch span: queueing,
  // batch formation and the future hand-off, which no span covers.
  outcome.add("obs.unattributed_share",
              request_ms > 0.0 ? 1.0 - batched_request_ms / request_ms : 0.0);
  if (dropped > 0) {
    outcome.fail("tracer dropped " + std::to_string(dropped) +
                 " events; per-layer numbers refused");
  }
}

}  // namespace

Outcome run_serving(const Options& options) {
  const auto spec = spec_for(options);
  Outcome outcome;
  auto setup = set_up(spec, options, kSetupReps);
  if (options.trace) {
    run_traced(spec, options, setup, outcome);
    return outcome;
  }
  const auto rows = static_cast<std::uint64_t>(spec.rows);
  // Warm-up: promise states, pool wake-ups and caches settle untimed.
  run_load(*setup.server, spec, setup.traffic, rows / 4,
           Clock::time_point::max(), options, outcome);
  // Read before the timed phase, whose latency samples are the harness's
  // own memory and grow with throughput.
  const double heap_mb = std::max(setup.heap_mb, live_heap_mb());
  const auto deadline = deadline_after(options.seconds);
  const auto load = run_load(*setup.server, spec, setup.traffic, UINT64_MAX,
                             deadline, options, outcome);
  const auto stats = setup.server->stats();
  // As many set-ups again after the load phase, so that setup_s draws on
  // both ends of the run rather than on one moment of the host's load.
  time_set_ups(spec, options, kSetupReps, setup);

  const double p50_ms = quantile(load.latency_s, 0.5) * 1e3;
  const double p99_ms = quantile(load.latency_s, 0.99) * 1e3;
  const double rps = static_cast<double>(load.completed) / load.wall_s;
  outcome.add("setup_s", min_of(setup.total_s));
  outcome.add("time_to_result_s", median(load.pass_s));
  outcome.add("work_per_s", rps);
  outcome.add("step_p50_ms", p50_ms);
  outcome.add("step_p90_ms", quantile(load.latency_s, 0.9) * 1e3);
  outcome.add("heap_mb", heap_mb);

  outcome.note("p50_ms", p50_ms, "ms");
  outcome.note("p99_ms", p99_ms, "ms");
  outcome.note("requests_per_s", rps, "1/s");
  outcome.note("peak_rss_mb", peak_rss_mb(), "MB");
  outcome.note("requests", static_cast<double>(load.completed), "count");
  outcome.note("passes", static_cast<double>(load.pass_s.size()), "count");
  outcome.note("setup_samples", static_cast<double>(setup.total_s.size()),
               "count");
  outcome.note("mean_batch_size", stats.mean_batch_size, "count");
  outcome.note("rejected", static_cast<double>(stats.rejected), "count");
  return outcome;
}

}  // namespace wallbench
