// tpascd_train — end-to-end command-line trainer.
//
// Loads a dataset (LIBSVM/svmlight text, our binary cache format, or a
// generated stand-in), trains ridge regression with any solver in the
// library — optionally distributed across simulated GPU workers with
// adaptive aggregation — reports duality-gap convergence and prediction
// metrics, and can save/load models.
//
// Examples:
//   tpascd_train --data train.svm --solver tpa-titanx --form dual
//                --lambda 1e-3 --target-gap 1e-6 --save model.tpam
//   tpascd_train --generate webspam --workers 4 --adaptive
//   tpascd_train --data test.svm --load model.tpam        # predict only
//   tpascd_train --workers 4 --checkpoint-every 5 --checkpoint run.ckpt
//   tpascd_train --workers 4 --resume run.ckpt            # continue run
//   tpascd_train --workers 4 --crash-worker 1 --crash-epoch 3
//                --stall-worker 2 --stall-factor 4        # fault drill
//   tpascd_train --workers 4 --async --staleness-window 6 --elastic
//                --leave-worker 2 --leave-round 3
//                --join-worker 2 --join-round 6           # elastic drill
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/async_solver.hpp"
#include "cluster/dist_solver.hpp"
#include "cluster/placement/drift.hpp"
#include "core/convergence.hpp"
#include "core/metrics.hpp"
#include "core/model_io.hpp"
#include "core/solver_factory.hpp"
#include "data/generators.hpp"
#include "linalg/half.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "sparse/io_binary.hpp"
#include "sparse/load.hpp"
#include "sparse/matrix_stats.hpp"
#include "run_report.hpp"
#include "store/checkpoint.hpp"
#include "store/shard_reader.hpp"
#include "store/streaming_dataset.hpp"
#include "store/streaming_solver.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

using namespace tpa;

data::Dataset load_dataset(const util::ArgParser& parser) {
  const auto path = parser.get_string("data", "");
  if (!path.empty()) {
    const auto features = parser.get_int<data::Index>("num-features", 0);
    sparse::LabeledMatrix loaded = sparse::load_labeled_file(path, features);
    return data::Dataset(path, std::move(loaded.matrix),
                         std::move(loaded.labels));
  }
  const auto kind = parser.get_string("generate", "webspam");
  const auto examples = parser.get_int<data::Index>("examples", 8192);
  const auto seed = parser.get_int<std::uint64_t>("seed", 42);
  if (kind == "criteo") {
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

void report_metrics(const data::Dataset& dataset,
                    std::span<const float> beta) {
  const auto predictions = core::predict(dataset, beta);
  std::printf("metrics: RMSE %.5f, R^2 %.4f, sign accuracy %.2f%%\n",
              core::rmse(predictions, dataset.labels()),
              core::r_squared(predictions, dataset.labels()),
              100.0 * core::sign_accuracy(predictions, dataset.labels()));
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// {"type":"placement",...} line for the --metrics-out report: the chosen
/// sizes, the uniform baseline and the predicted round times.
std::string placement_report_json(
    const cluster::placement::PlacementResult& plan,
    double simulated_round_seconds) {
  const auto sizes_json = [](const std::vector<data::Index>& sizes) {
    std::string out = "[";
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(sizes[i]);
    }
    return out + "]";
  };
  return obs::JsonObject()
      .field_str("type", "placement")
      .field_str("mode", cluster::placement::placement_mode_name(plan.mode))
      .field_bool("optimized", plan.optimized)
      .field_raw("sizes", sizes_json(plan.sizes))
      .field_raw("uniform_sizes", sizes_json(plan.uniform_sizes))
      .field_num("predicted_round_seconds", plan.predicted.total())
      .field_num("uniform_round_seconds", plan.uniform_predicted.total())
      .field_num("predicted_speedup", plan.predicted_speedup())
      .field_num("simulated_round_seconds", simulated_round_seconds)
      .str();
}

/// {"type":"drift",...} line for the --metrics-out report: the cost-model
/// audit verdict, one term per entry (tpascd_traceview --diff reads these).
std::string drift_report_json(const cluster::placement::DriftReport& drift) {
  std::string terms = "[";
  for (std::size_t i = 0; i < drift.terms.size(); ++i) {
    const auto& term = drift.terms[i];
    if (i > 0) terms += ",";
    terms += obs::JsonObject()
                 .field_str("term", term.name)
                 .field_num("predicted_seconds", term.predicted_seconds)
                 .field_num("measured_seconds", term.measured_seconds)
                 .field_num("rel_error", term.rel_error)
                 .str();
  }
  terms += "]";
  return obs::JsonObject()
      .field_str("type", "drift")
      .field_uint("rounds", drift.rounds)
      .field_num("max_rel_error", drift.max_rel_error)
      .field_raw("terms", terms)
      .str();
}

void write_trace_outputs(const util::ArgParser& parser,
                         const core::ConvergenceTrace& trace,
                         const std::string& trace_out, bool chrome_trace,
                         const std::string& placement_json = {},
                         const std::string& drift_json = {}) {
  tools::warn_if_trace_dropped("tpascd_train");
  if (!trace_out.empty()) {
    if (chrome_trace) {
      obs::write_chrome_trace(trace_out);
      std::printf("Chrome trace (%llu spans) written to %s\n",
                  static_cast<unsigned long long>(
                      obs::trace_events_recorded()),
                  trace_out.c_str());
    } else if (ends_with(trace_out, ".csv")) {
      trace.write_csv_file(trace_out);
      std::printf("convergence trace written to %s\n", trace_out.c_str());
    } else {
      trace.write_jsonl_file(trace_out);
      std::printf("convergence trace written to %s\n", trace_out.c_str());
    }
  }
  if (parser.has("metrics-out")) {
    const auto path = parser.get_string("metrics-out", "");
    sparse::commit_file(path, "run report", [&](std::ostream& out) {
      out << tools::run_meta_json("tpascd_train") << '\n';
      if (!placement_json.empty()) out << placement_json << '\n';
      if (!drift_json.empty()) out << drift_json << '\n';
      trace.write_jsonl(out);
      obs::metrics().write_jsonl(out);
    });
    std::printf("run report written to %s\n", path.c_str());
  }
}

/// Exit code of a run whose duality gap went NaN or infinite.  run_loop
/// stops at that epoch; the trace and the run report are still written,
/// the model is not.
constexpr int kDivergedExit = 3;

int report_divergence(const core::ConvergenceTrace& trace) {
  const auto& last = trace.points().back();
  std::fprintf(stderr,
               "error: training diverged at epoch %d (gap %g); no model "
               "saved\n",
               last.epoch, last.gap);
  return kDivergedExit;
}

/// The run options of both modes.  A streamed run ignores gap_threads: its
/// gap is the serial streamed pass.
core::RunOptions read_run_options(const util::ArgParser& parser) {
  core::RunOptions options;
  options.max_epochs = parser.get_int<int>("epochs", 100);
  options.target_gap = parser.get_double("target-gap", 1e-6);
  options.gap_every = parser.get_int<int>("gap-every", 1);
  options.gap_threads = parser.get_int<int>("gap-threads", 1);
  return options;
}

// The out-of-core path: shards stream through a fixed resident window
// instead of a fully materialised Dataset.  `--store <manifest>` trains
// off disk; `--stream-shards K` shards an in-memory matrix with the same
// split rule — the bit-exact comparison arm (identical solver code,
// different byte source).
int run_streaming_mode(const util::ArgParser& parser,
                       const core::RunOptions& run_options,
                       const std::string& trace_out, bool chrome_trace) {
  const auto manifest_path = parser.get_string("store", "");
  const auto stream_shards = parser.get_int<std::uint64_t>("stream-shards", 4);

  store::StreamingConfig config;
  config.lambda = parser.get_double("lambda", 1e-3);
  config.seed = parser.get_int<std::uint64_t>("seed", 42);
  config.threads = parser.get_int<int>("stream-threads", 1);
  config.resident_shards = parser.get_int<std::size_t>("resident-shards", 2);
  config.async_prefetch = !parser.get_bool("sync-prefetch");
  config.merge_every = parser.get_int<int>("merge-every", 0);

  store::CheckpointOptions checkpoint;
  checkpoint.every_shards =
      parser.get_int<std::size_t>("checkpoint-every-shards", 0);
  if (checkpoint.every_shards > 0 || parser.has("checkpoint")) {
    checkpoint.path = parser.get_string("checkpoint", "tpascd.ckpt");
  }

  // A resumed run takes the run identity (lambda, seed, threads) from the
  // checkpoint; the solver rejects shape mismatches below.
  const bool resuming = parser.has("resume");
  store::StreamingCheckpoint restored;
  if (resuming) {
    restored = store::read_checkpoint_file(parser.get_string("resume", ""));
    config.lambda = restored.lambda;
    config.seed = restored.seed;
    config.threads = static_cast<int>(restored.threads);
    std::printf(
        "resuming streamed run from epoch %llu + %llu shards (lambda %.3g)\n",
        static_cast<unsigned long long>(restored.epoch),
        static_cast<unsigned long long>(restored.shards_done),
        restored.lambda);
  }

  sparse::LabeledMatrix memory_data;  // owns the --stream-shards arm's bytes
  std::unique_ptr<store::StreamingDataset> source;
  if (!manifest_path.empty()) {
    source = std::make_unique<store::StoreStreamingDataset>(
        store::ShardReader::open(manifest_path));
  } else {
    data::Dataset dataset = load_dataset(parser);
    memory_data.matrix = dataset.by_row();
    memory_data.labels.assign(dataset.labels().begin(),
                              dataset.labels().end());
    source = std::make_unique<store::MemoryShardedDataset>(
        dataset.name(), memory_data, stream_shards);
  }
  std::printf("store: %s — %llu rows x %llu cols, %llu nnz, %zu shards\n",
              source->name().c_str(),
              static_cast<unsigned long long>(source->rows()),
              static_cast<unsigned long long>(source->cols()),
              static_cast<unsigned long long>(source->nnz()),
              source->num_shards());

  store::StreamingScdSolver solver(*source, config);
  if (resuming) {
    if (restored.rows != source->rows() || restored.cols != source->cols() ||
        restored.shards != source->num_shards()) {
      throw std::runtime_error(
          "checkpoint shape does not match this store — bit-exact resume "
          "is impossible");
    }
    solver.resume(static_cast<int>(restored.epoch), restored.shards_done,
                  std::move(restored.alpha), std::move(restored.shared));
  }

  const auto trace = store::run_streaming(solver, run_options, checkpoint);
  std::printf("trained %d epochs with %s: gap %.3e\n",
              trace.points().back().epoch, solver.name().c_str(),
              trace.final_gap());
  const auto& stats = solver.prefetch_stats();
  std::printf(
      "prefetch: %llu loads, %llu stalls, %.3f s loading, %.3f s waiting, "
      "overlap %.1f%%\n",
      static_cast<unsigned long long>(stats.loads),
      static_cast<unsigned long long>(stats.stalls), stats.load_seconds,
      stats.wait_seconds, 100.0 * stats.overlap_fraction());
  if (trace.diverged()) {
    write_trace_outputs(parser, trace, trace_out, chrome_trace);
    return report_divergence(trace);
  }

  if (parser.has("save")) {
    core::SavedModel model;
    model.formulation = core::Formulation::kDual;
    model.lambda = config.lambda;
    model.epoch = static_cast<std::uint32_t>(solver.epochs_completed());
    model.weights.assign(solver.alpha().begin(), solver.alpha().end());
    model.shared.assign(solver.shared().begin(), solver.shared().end());
    const auto path = parser.get_string("save", "");
    core::write_model_file(path, model);
    std::printf("model saved to %s\n", path.c_str());
  }

  write_trace_outputs(parser, trace, trace_out, chrome_trace);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("tpascd_train",
                         "train ridge regression with (simulated-)GPU "
                         "stochastic coordinate descent");
  parser.add_option("data", "svmlight/.bin dataset path (omit to generate)");
  parser.add_option("num-features", "force feature count for svmlight", "0");
  parser.add_option("generate", "webspam | criteo (when --data absent)",
                    "webspam");
  parser.add_option("examples", "generated example count", "8192");
  parser.add_option("features", "generated feature count", "2x examples");
  parser.add_option("seed", "RNG seed", "42");
  parser.add_option("solver",
                    "seq | ascd | wild | ascd-threads | rep-threads | "
                    "tpa-m4000 | tpa-titanx",
                    "tpa-titanx");
  parser.add_option("form", "primal | dual", "dual");
  parser.add_option("lambda", "regularisation strength", "1e-3");
  parser.add_option("epochs", "maximum epochs", "100");
  parser.add_option("target-gap", "stop at this duality gap", "1e-6");
  parser.add_option("threads", "threads for CPU async solvers", "16");
  parser.add_option("gap-every",
                    "evaluate the duality gap every N epochs (amortises the "
                    "per-check matrix pass)",
                    "1");
  parser.add_option("gap-threads",
                    "threads for each duality-gap evaluation (1 = serial)",
                    "1");
  parser.add_option("merge-every",
                    "replicated solvers: updates per worker between replica "
                    "merges (0 = automatic)",
                    "0");
  parser.add_option("precision",
                    "shared-vector storage precision: fp32 | fp16 (fp16 "
                    "halves replica/shared bandwidth; weights, merges and "
                    "the duality gap stay full precision — DESIGN.md §16)",
                    "fp32");
  parser.add_flag("compress-deltas",
                  "cluster drivers: ship worker deltas quantized (fp16 "
                  "payload + per-block fp32 scales, checksummed in "
                  "encoded form)");
  parser.add_option("workers", "distribute across this many workers", "1");
  parser.add_option("fleet",
                    "heterogeneous worker fleet: comma-separated "
                    "<count>x<device> with device cpu[:threads] | m4000 | "
                    "titanx, e.g. 4xtitanx,4xcpu:4 (sets --workers; see "
                    "DESIGN.md §14)");
  parser.add_option("placement",
                    "fleet partitioning: uniform (equal split) | optimize "
                    "(partition sizes that minimise the compute makespan)",
                    "optimize");
  parser.add_flag("no-overlap",
                  "disable comm/compute overlap of the delta reduce "
                  "(overlap is on by default for --fleet runs)");
  parser.add_option("network",
                    "cluster interconnect preset: 10gbe | 100gbe | pcie",
                    "10gbe");
  parser.add_flag("adaptive", "use adaptive aggregation (Algorithm 4)");
  parser.add_flag("async",
                  "no-barrier bounded-staleness driver instead of the "
                  "barrier rounds (DESIGN.md §8)");
  parser.add_option("staleness-window",
                    "async: max versions a delta may lag before the "
                    "staleness policy kicks in (0 = 2(K-1) adaptive)",
                    "0");
  parser.add_option("staleness-policy",
                    "async: damp (θ = τ/s under-relaxation) | reject",
                    "damp");
  parser.add_flag("elastic",
                  "async: enable the scripted join/leave schedule below");
  parser.add_option("leave-worker",
                    "elastic: detach this worker (-1 = off)", "-1");
  parser.add_option("leave-round", "round of the scripted leave", "3");
  parser.add_option("join-worker",
                    "elastic: revive this detached/evicted slot (-1 = off)",
                    "-1");
  parser.add_option("join-round", "round of the scripted join", "6");
  parser.add_option("store",
                    "train out-of-core from this shard-store manifest "
                    "(see tpascd_shard)");
  parser.add_option("resident-shards",
                    "decoded shards resident at once (2 = double buffer)",
                    "2");
  parser.add_option("stream-shards",
                    "shard an in-memory dataset and run the streaming "
                    "solver over it (bit-exact comparison arm for --store)",
                    "0");
  parser.add_flag("sync-prefetch",
                  "load shards inline instead of prefetching (overlap "
                  "control arm)");
  parser.add_option("stream-threads",
                    "threads per shard sweep in streaming mode", "1");
  parser.add_option("checkpoint-every-shards",
                    "streaming mode: checkpoint every N shards (0 = off)",
                    "0");
  parser.add_option("save", "write the trained model here");
  parser.add_option("load", "load a model instead of training");
  parser.add_option("checkpoint", "checkpoint file for distributed runs",
                    "tpascd.ckpt");
  parser.add_option("checkpoint-every",
                    "write a checkpoint every N epochs (0 = off)", "0");
  parser.add_option("resume",
                    "resume a distributed run from this checkpoint");
  parser.add_option("crash-worker",
                    "inject a crash on this worker (-1 = off)", "-1");
  parser.add_option("crash-epoch", "epoch of the injected crash", "3");
  parser.add_option("stall-worker",
                    "permanently stall this worker (-1 = off)", "-1");
  parser.add_option("stall-factor", "slow-down factor of the stall", "4");
  parser.add_option("straggler-grace",
                    "deadline multiplier before degraded aggregation",
                    "1.5");
  parser.add_option("max-restarts", "crashes before a worker is evicted",
                    "3");
  parser.add_option("trace-out",
                    "write a trace here: .json = Chrome trace of spans "
                    "(Perfetto-loadable), .csv/.jsonl = gap-vs-time "
                    "convergence trace");
  parser.add_option("metrics-out",
                    "write a JSONL run report here (build meta, trace "
                    "points, cluster events, metric snapshot)");
  parser.add_option("log", "log level: debug|info|warn|error", "warn");
  if (!parser.parse(argc, argv)) return 1;
  util::set_log_level(util::parse_log_level(parser.get_string("log", "warn")));

  // Span recording must be live before any solver runs.  TPA_TRACE=1 in the
  // environment enables it too (see obs/trace.hpp).
  const auto trace_out = parser.get_string("trace-out", "");
  const bool chrome_trace = ends_with(trace_out, ".json");
  if (chrome_trace) obs::set_trace_enabled(true);

  try {
    // Every option is read before any data: a malformed one is refused
    // before a whole file has loaded.
    const auto run_options = read_run_options(parser);
    // Every mode, the streamed one too, runs at the chosen precision.
    const auto precision_name = parser.get_string("precision", "fp32");
    if (precision_name == "fp16" || precision_name == "half") {
      linalg::set_shared_precision(linalg::SharedPrecision::kFp16);
    } else if (precision_name != "fp32") {
      throw std::invalid_argument("unknown --precision '" + precision_name +
                                  "' (fp32 | fp16)");
    }
    if (parser.has("store") ||
        parser.get_int<std::uint64_t>("stream-shards", 0) > 0) {
      return run_streaming_mode(parser, run_options, trace_out, chrome_trace);
    }
    // A resumed run takes formulation and lambda from the checkpoint so the
    // objective is guaranteed to match the interrupted run.
    const bool resuming = parser.has("resume");
    core::SavedModel resume_model;
    if (resuming) {
      resume_model = core::read_model_file(parser.get_string("resume", ""));
      std::printf("resuming %s run from epoch %u (lambda %.3g)\n",
                  formulation_name(resume_model.formulation),
                  resume_model.epoch, resume_model.lambda);
    }
    const double lambda =
        resuming ? resume_model.lambda : parser.get_double("lambda", 1e-3);
    const auto formulation =
        resuming ? resume_model.formulation
        : parser.get_string("form", "dual") == "primal"
            ? core::Formulation::kPrimal
            : core::Formulation::kDual;
    core::SolverConfig solver_config;
    solver_config.kind =
        core::parse_solver_kind(parser.get_string("solver", "tpa-titanx"));
    solver_config.formulation = formulation;
    solver_config.threads = parser.get_int<int>("threads", 16);
    solver_config.seed = parser.get_int<std::uint64_t>("seed", 42);
    solver_config.merge_every = parser.get_int<int>("merge-every", 0);

    cluster::placement::FleetSpec fleet;
    if (parser.has("fleet")) {
      fleet = cluster::placement::parse_fleet_spec(
          parser.get_string("fleet", ""));
      std::printf("fleet: %s\n",
                  cluster::placement::fleet_summary(fleet).c_str());
    }
    const auto placement_mode = cluster::placement::parse_placement_mode(
        parser.get_string("placement", "optimize"));
    const auto network =
        cluster::NetworkModel::preset(parser.get_string("network", "10gbe"));
    // --fleet names one device per worker slot, so it pins the worker count.
    const int workers =
        fleet.empty() ? parser.get_int<int>("workers", 1)
                      : static_cast<int>(fleet.size());
    if (resuming && workers <= 1) {
      throw std::invalid_argument(
          "--resume needs a distributed run (--workers > 1)");
    }
    if (!fleet.empty() && workers < 2) {
      throw std::invalid_argument(
          "--fleet needs at least two devices (one per worker slot)");
    }

    const auto build_faults = [&](cluster::FaultConfig& faults) {
      const int crash_worker = parser.get_int<int>("crash-worker", -1);
      if (crash_worker >= 0) {
        cluster::FaultEvent crash;
        crash.kind = cluster::FaultKind::kCrash;
        crash.worker = crash_worker;
        crash.epoch = parser.get_int<int>("crash-epoch", 3);
        faults.scripted.push_back(crash);
      }
      const int stall_worker = parser.get_int<int>("stall-worker", -1);
      if (stall_worker >= 0) {
        cluster::FaultEvent stall;
        stall.kind = cluster::FaultKind::kStall;
        stall.worker = stall_worker;
        stall.epoch = 1;
        stall.stall_factor = parser.get_double("stall-factor", 4.0);
        stall.permanent = true;
        faults.scripted.push_back(stall);
      }
    };
    cluster::CheckpointConfig ckpt;
    ckpt.every_epochs = parser.get_int<int>("checkpoint-every", 0);
    ckpt.path = parser.get_string("checkpoint", "tpascd.ckpt");

    // The fields both cluster drivers share; each driver adds its own knobs.
    cluster::ClusterConfig cluster_config;
    cluster_config.formulation = formulation;
    cluster_config.num_workers = workers;
    cluster_config.aggregation = parser.get_bool("adaptive")
                                     ? cluster::AggregationMode::kAdaptive
                                     : cluster::AggregationMode::kAveraging;
    cluster_config.local_solver = solver_config;
    cluster_config.lambda = lambda;
    cluster_config.max_restarts = parser.get_int<int>("max-restarts", 3);
    cluster_config.network = network;
    cluster_config.fleet = fleet;
    cluster_config.placement = placement_mode;
    cluster_config.compress_deltas = parser.get_bool("compress-deltas");
    build_faults(cluster_config.faults);

    cluster::AsyncConfig async(cluster_config);
    async.staleness_window = parser.get_int<int>("staleness-window", 0);
    async.staleness_policy = cluster::parse_staleness_policy(
        parser.get_string("staleness-policy", "damp"));
    if (parser.get_bool("elastic")) {
      const int leave_worker = parser.get_int<int>("leave-worker", -1);
      if (leave_worker >= 0) {
        async.membership.push_back(
            {parser.get_int<int>("leave-round", 3),
             leave_worker, cluster::MembershipEvent::Kind::kLeave});
      }
      const int join_worker = parser.get_int<int>("join-worker", -1);
      if (join_worker >= 0) {
        async.membership.push_back(
            {parser.get_int<int>("join-round", 6),
             join_worker, cluster::MembershipEvent::Kind::kJoin});
      }
    }
    cluster::DistConfig dist(cluster_config);
    dist.straggler_grace = parser.get_double("straggler-grace", 1.5);
    dist.comm_overlap = !fleet.empty() && !parser.get_bool("no-overlap");

    const auto dataset = load_dataset(parser);
    std::printf("dataset: %s\n",
                sparse::compute_stats(dataset.by_row()).summary().c_str());
    const core::RidgeProblem problem(dataset, lambda);

    // Predict-only path.
    if (parser.has("load")) {
      const auto model =
          core::read_model_file(parser.get_string("load", ""));
      std::printf("loaded %s model (lambda %.3g)\n",
                  formulation_name(model.formulation), model.lambda);
      const auto beta = model.formulation == core::Formulation::kPrimal
                            ? model.weights
                            : problem.primal_from_dual_shared(model.shared);
      report_metrics(dataset, beta);
      return 0;
    }

    core::SavedModel model;
    model.formulation = formulation;
    model.lambda = lambda;
    core::ConvergenceTrace trace;
    std::string placement_json;
    std::string drift_json;
    // "Where did the round go?" — the per-round mean of the attribution the
    // solver records as round.attr.* (components sum to the round wall-time).
    const auto print_attribution = [](const obs::RoundAttribution& totals,
                                      std::uint64_t rounds) {
      if (rounds == 0) return;
      const double inv = 1.0 / static_cast<double>(rounds);
      std::printf(
          "attribution (per-round mean over %llu rounds): compute %.3f ms, "
          "host %.3f ms, pcie %.3f ms, network %.3f ms, straggler wait "
          "%.3f ms, stale overhead %.3f ms\n",
          static_cast<unsigned long long>(rounds),
          1e3 * totals.compute_seconds * inv, 1e3 * totals.host_seconds * inv,
          1e3 * totals.pcie_seconds * inv, 1e3 * totals.network_seconds * inv,
          1e3 * totals.straggler_wait_seconds * inv,
          1e3 * totals.stale_overhead_seconds * inv);
    };
    const auto report_placement =
        [&](const cluster::placement::PlacementResult* plan,
            double simulated_round_seconds) {
          if (plan == nullptr) return;
          cluster::placement::record_placement_obs(*plan);
          std::printf(
              "placement: %s (%s) — predicted round %.3f ms vs "
              "uniform %.3f ms (%.2fx), simulated round %.3f ms\n",
              cluster::placement::placement_mode_name(plan->mode),
              plan->optimized ? "non-uniform sizes" : "uniform sizes",
              1e3 * plan->predicted.total(),
              1e3 * plan->uniform_predicted.total(),
              plan->predicted_speedup(), 1e3 * simulated_round_seconds);
          placement_json =
              placement_report_json(*plan, simulated_round_seconds);
        };

    if (workers > 1 && parser.get_bool("async")) {
      cluster::AsyncSolver solver(dataset, async);
      if (resuming) solver.restore_files(parser.get_string("resume", ""));
      trace = cluster::run_async(solver, run_options, ckpt);
      std::printf(
          "trained %d async rounds across %d workers (%s, window %d, %s): "
          "gap %.3e, %llu applied versions, simulated %.3f s\n",
          trace.points().back().epoch, workers,
          aggregation_name(async.aggregation),
          solver.effective_staleness_window(),
          staleness_policy_name(async.staleness_policy), trace.final_gap(),
          static_cast<unsigned long long>(solver.version()),
          trace.points().back().sim_seconds);
      if (!trace.events().empty()) {
        std::printf(
            "async log: %zu crashes, %zu restarts, %zu evictions, "
            "%zu joins, %zu leaves, %zu damped, %zu rejected, %zu dropped, "
            "%zu corrupted, %zu checkpoints\n",
            trace.count_events(core::ClusterEventKind::kCrash),
            trace.count_events(core::ClusterEventKind::kRestart),
            trace.count_events(core::ClusterEventKind::kEvict),
            trace.count_events(core::ClusterEventKind::kJoin),
            trace.count_events(core::ClusterEventKind::kLeave),
            trace.count_events(core::ClusterEventKind::kStaleDamped),
            trace.count_events(core::ClusterEventKind::kStaleRejected),
            trace.count_events(core::ClusterEventKind::kDeltaDropped),
            trace.count_events(core::ClusterEventKind::kDeltaCorrupted),
            trace.count_events(core::ClusterEventKind::kCheckpoint));
      }
      if (async.compress_deltas && solver.delta_bytes_dense() > 0) {
        std::printf(
            "delta exchange: %.2f MB on wire vs %.2f MB dense (%.2fx)\n",
            static_cast<double>(solver.delta_bytes_on_wire()) / 1e6,
            static_cast<double>(solver.delta_bytes_dense()) / 1e6,
            static_cast<double>(solver.delta_bytes_dense()) /
                static_cast<double>(solver.delta_bytes_on_wire()));
      }
      const auto rounds = std::max(1, solver.current_epoch());
      report_placement(solver.placement_result(),
                       trace.points().back().sim_seconds / rounds);
      print_attribution(solver.attribution_totals(),
                        solver.attribution_rounds());
      model.epoch = static_cast<std::uint32_t>(solver.current_epoch());
      model.weights = solver.global_weights();
      model.shared = solver.global_shared();
    } else if (workers > 1) {
      cluster::DistributedSolver solver(dataset, dist);
      if (resuming) solver.restore_files(parser.get_string("resume", ""));
      trace = cluster::run_distributed(solver, run_options, ckpt);
      std::printf("trained %d epochs across %d workers (%s): gap %.3e, "
                  "simulated %.3f s\n",
                  trace.points().back().epoch, workers,
                  aggregation_name(dist.aggregation), trace.final_gap(),
                  trace.points().back().sim_seconds);
      if (!trace.events().empty()) {
        std::printf(
            "fault log: %zu crashes, %zu restarts, %zu evictions, "
            "%zu deadline misses, %zu late deltas, %zu checkpoints\n",
            trace.count_events(core::ClusterEventKind::kCrash),
            trace.count_events(core::ClusterEventKind::kRestart),
            trace.count_events(core::ClusterEventKind::kEvict),
            trace.count_events(core::ClusterEventKind::kDeadlineMiss),
            trace.count_events(core::ClusterEventKind::kLateDelta),
            trace.count_events(core::ClusterEventKind::kCheckpoint));
      }
      if (dist.compress_deltas && solver.delta_bytes_dense() > 0) {
        std::printf(
            "delta exchange: %.2f MB on wire vs %.2f MB dense (%.2fx)\n",
            static_cast<double>(solver.delta_bytes_on_wire()) / 1e6,
            static_cast<double>(solver.delta_bytes_dense()) / 1e6,
            static_cast<double>(solver.delta_bytes_dense()) /
                static_cast<double>(solver.delta_bytes_on_wire()));
      }
      report_placement(solver.placement_result(),
                       solver.last_attribution().total());
      print_attribution(solver.attribution_totals(),
                        solver.attribution_rounds());
      if (const auto* plan = solver.placement_result()) {
        const auto drift = cluster::placement::audit_placement_drift(
            plan->predicted, solver.attribution_totals(),
            solver.attribution_rounds());
        cluster::placement::record_drift_obs(drift);
        cluster::placement::print_drift_report(std::cout, drift);
        drift_json = drift_report_json(drift);
      }
      model.epoch = static_cast<std::uint32_t>(solver.current_epoch());
      model.weights = solver.global_weights();
      model.shared = solver.global_shared();
    } else {
      const auto solver = core::make_solver(problem, solver_config);
      trace = core::run_solver(*solver, problem, run_options);
      std::printf("trained %d epochs with %s: gap %.3e, simulated %.3f s\n",
                  trace.points().back().epoch, solver->name().c_str(),
                  trace.final_gap(), trace.points().back().sim_seconds);
      model.weights = solver->state().weights;
      model.shared = solver->state().shared;
    }
    if (trace.diverged()) {
      write_trace_outputs(parser, trace, trace_out, chrome_trace,
                          placement_json, drift_json);
      return report_divergence(trace);
    }

    const auto beta = formulation == core::Formulation::kPrimal
                          ? model.weights
                          : problem.primal_from_dual_shared(model.shared);
    report_metrics(dataset, beta);

    if (parser.has("save")) {
      const auto path = parser.get_string("save", "");
      core::write_model_file(path, model);
      std::printf("model saved to %s\n", path.c_str());
    }

    write_trace_outputs(parser, trace, trace_out, chrome_trace,
                        placement_json, drift_json);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
