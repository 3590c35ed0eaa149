// Training workloads: local_dual (core::run_solver), cluster_sync
// (cluster::run_distributed) and cluster_async (cluster::run_async), each a
// dual ridge problem on webspam-like data solved to a target duality gap.
//
// A run holds kInstances problem instances generated from the workload seed
// and solves them round-robin, each time on a freshly built driver, until
// its window closes.  Two effects set the design:
//  - The rounds to the gap differ between data seeds (177-243 on the async
//    driver); the mean over instances narrows that spread in every run.
//  - Other tenants of the host slow a solve by up to 1.8x, in episodes of
//    seconds to minutes.  A solve is deterministic work, so interference
//    only ever adds time: each timing is the best over all solves of the
//    run (hundreds).  Over six runs in a noisy hour the fastest solve's
//    epoch time held within 1.4% while the mean and median over solves
//    swung 30% and 44%.
// Time to the gap is therefore the exact mean epochs to the gap times the
// best wall time per epoch of a whole driver call (gap evaluations
// included): the split into statistical and hardware efficiency.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "cluster/async_solver.hpp"
#include "cluster/delta_codec.hpp"
#include "cluster/dist_solver.hpp"
#include "core/convergence.hpp"
#include "core/ridge_problem.hpp"
#include "core/solver_factory.hpp"
#include "data/generators.hpp"
#include "linalg/vector_ops.hpp"
#include "util/rng.hpp"

namespace wallbench {
namespace {

using namespace tpa;

constexpr auto kDual = core::Formulation::kDual;

enum class Driver { kLocal, kSync, kAsync };

// 2048 x 4096 keeps one instance (~0.8 MB of rows) inside the 2 MB
// per-core L2, which other tenants cannot evict.  From 8192 rows up an
// instance spills into the L3 the host shares, and even its fastest solves
// slowed while the host was busy (6.7% spread between runs against 1.4%
// here).  λ = 1e-5 keeps the mean epochs to the gap of a run within a few
// percent between seeds (λ = 1e-4 spread single instances 2.5x on the
// cluster drivers).
struct TrainSpec {
  Driver driver = Driver::kLocal;
  data::Index examples = 2048;
  data::Index features = 4096;
  double lambda = 1e-5;
  double target_gap = 1e-6;
  int max_epochs = 2000;
};

TrainSpec spec_for(const Options& options) {
  TrainSpec spec;
  if (options.workload == "cluster_sync" ||
      options.workload == "cluster_async") {
    spec.driver = options.workload == "cluster_sync" ? Driver::kSync
                                                     : Driver::kAsync;
    // Below a gap of ~1e-5 the distributed runs enter a slow tail whose
    // length swings several-fold between data seeds; to 1e-4 they take
    // 105-162 sync and 177-243 async rounds.
    spec.target_gap = 1e-4;
  }
  if (options.tiny) {
    spec.examples = 1024;
    spec.features = 2048;
    spec.lambda = 1e-3;
    spec.target_gap = 1e-5;
  }
  return spec;
}

/// One driver ready to run once: the public construction and run calls of
/// the workload's layer, behind a common face.
class Trainer {
 public:
  virtual ~Trainer() = default;
  virtual core::ConvergenceTrace run(const core::RunOptions& options) = 0;
  virtual std::vector<float> weights() const = 0;
  virtual std::vector<float> shared() const = 0;
  /// Delta bytes that crossed the simulated wire (cluster drivers).
  virtual std::uint64_t wire_bytes() const { return 0; }
};

class LocalTrainer final : public Trainer {
 public:
  LocalTrainer(const data::Dataset& dataset, double lambda)
      : problem_(dataset, lambda),
        solver_(core::make_solver(problem_, config())) {}

  core::ConvergenceTrace run(const core::RunOptions& options) override {
    return core::run_solver(*solver_, problem_, options);
  }
  std::vector<float> weights() const override {
    return solver_->state().weights;
  }
  std::vector<float> shared() const override {
    return solver_->state().shared;
  }

 private:
  // Sequential dual SCD (Algorithm 1) with the factory's fixed solver seed:
  // the workload seed reaches the generator only.
  static core::SolverConfig config() {
    core::SolverConfig config;
    config.kind = core::SolverKind::kSequential;
    config.formulation = kDual;
    return config;
  }

  core::RidgeProblem problem_;
  std::unique_ptr<core::Solver> solver_;
};

template <typename SolverT, typename ConfigT,
          core::ConvergenceTrace (*RunFn)(SolverT&, const core::RunOptions&,
                                          const cluster::CheckpointConfig&)>
class ClusterTrainer final : public Trainer {
 public:
  ClusterTrainer(const data::Dataset& dataset, const ConfigT& config)
      : solver_(dataset, config) {}

  core::ConvergenceTrace run(const core::RunOptions& options) override {
    return RunFn(solver_, options, {});
  }
  std::vector<float> weights() const override {
    return solver_.global_weights();
  }
  std::vector<float> shared() const override {
    return solver_.global_shared();
  }
  std::uint64_t wire_bytes() const override {
    return solver_.delta_bytes_on_wire();
  }

 private:
  SolverT solver_;
};

using SyncTrainer = ClusterTrainer<cluster::DistributedSolver,
                                   cluster::DistConfig,
                                   &cluster::run_distributed>;
using AsyncTrainer =
    ClusterTrainer<cluster::AsyncSolver, cluster::AsyncConfig,
                   &cluster::run_async>;

/// K = 4 simulated workers, adaptive aggregation (Algorithm 4), sequential
/// local solvers; the sync driver exchanges compressed deltas.
template <typename ConfigT>
ConfigT cluster_config(const TrainSpec& spec, bool compress) {
  ConfigT config;
  config.formulation = kDual;
  config.num_workers = 4;
  config.aggregation = cluster::AggregationMode::kAdaptive;
  config.local_solver.kind = core::SolverKind::kSequential;
  config.lambda = spec.lambda;
  config.compress_deltas = compress;
  return config;
}

std::unique_ptr<Trainer> make_trainer(const TrainSpec& spec,
                                      const data::Dataset& dataset) {
  switch (spec.driver) {
    case Driver::kSync:
      return std::make_unique<SyncTrainer>(
          dataset, cluster_config<cluster::DistConfig>(spec, true));
    case Driver::kAsync:
      return std::make_unique<AsyncTrainer>(
          dataset, cluster_config<cluster::AsyncConfig>(spec, false));
    case Driver::kLocal:
      break;
  }
  return std::make_unique<LocalTrainer>(dataset, spec.lambda);
}

data::Dataset generate(const TrainSpec& spec, std::uint64_t seed) {
  data::WebspamLikeConfig config;
  config.num_examples = spec.examples;
  config.num_features = spec.features;
  config.seed = seed;
  return data::make_webspam_like(config);
}

core::RunOptions run_options(const TrainSpec& spec) {
  core::RunOptions options;
  options.max_epochs = spec.max_epochs;
  options.target_gap = spec.target_gap;
  options.record_interval = 1;  // the gap is evaluated after every epoch
  options.gap_every = 1;
  options.gap_threads = 1;  // serial: one OS thread for the whole solve
  return options;
}

/// Problem instances per run, each generated from its own seed drawn from
/// the workload seed.
constexpr int kInstances = 16;

/// One problem instance: its data, the driver built in set-up (used by the
/// first solve), and a RidgeProblem of the harness's own that the checks
/// recompute the gap with.  Never moved once built: both the driver and
/// the checker point into `dataset`.
struct Instance {
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  std::uint64_t seed = 0;
  std::optional<data::Dataset> dataset;
  std::unique_ptr<Trainer> trainer;
  std::optional<core::RidgeProblem> checker;
};

/// The instances and the timed set-ups: data generation plus driver
/// construction.
struct Setup {
  std::vector<Instance> instances = std::vector<Instance>(kInstances);
  std::vector<double> generate_s;
  std::vector<double> build_s;
  std::vector<double> total_s;
  double heap_mb = 0.0;  // most heap in use after a set-up or a solve
};

/// Generates `instance`'s data and builds its driver, timing both.
void time_set_up(const TrainSpec& spec, Instance& instance, Setup& setup) {
  const auto start = Clock::now();
  instance.dataset.emplace(generate(spec, instance.seed));
  const double generated = seconds_since(start);
  instance.trainer = make_trainer(spec, *instance.dataset);
  const double total = seconds_since(start);
  setup.generate_s.push_back(generated);
  setup.build_s.push_back(total - generated);
  setup.total_s.push_back(total);
}

/// One more timed set-up of instance `pass` mod kInstances, on a copy that
/// is dropped at once.  One per pass of the solve loop spreads the set-up
/// samples over the run: a set-up takes ~20 ms, and the 16 at the start of
/// a run often fell into one episode of the host's load.  setup_s is the
/// fastest sample, like every training timing: the median of the samples
/// moved 24% between two sets of runs of identical code.
void resample_set_up(const TrainSpec& spec, std::size_t pass, Setup& setup) {
  Instance copy;
  copy.seed = setup.instances[pass % setup.instances.size()].seed;
  time_set_up(spec, copy, setup);
}

Setup set_up(const TrainSpec& spec, const Options& options) {
  Setup setup;
  std::uint64_t state = options.seed;
  for (auto& instance : setup.instances) {
    instance.seed = util::splitmix64_next(state);
  }
  for (auto& instance : setup.instances) time_set_up(spec, instance, setup);
  for (auto& instance : setup.instances) {
    instance.checker.emplace(*instance.dataset, spec.lambda);
  }
  setup.heap_mb = live_heap_mb();
  return setup;
}

/// The set-up's driver for an instance's first solve, a fresh one for each
/// later solve (a driver runs once).
std::unique_ptr<Trainer> next_trainer(const TrainSpec& spec,
                                      Instance& instance) {
  if (instance.trainer) return std::move(instance.trainer);
  return make_trainer(spec, *instance.dataset);
}

/// What one solve to the gap produced, timed from outside the driver call.
struct Solve {
  double seconds = 0.0;        // wall time of the driver call
  int epochs = 0;              // epochs (rounds) at the first gap <= target
  double train_seconds = 0.0;  // the trace's training wall time (no gap eval)
  double sim_seconds = 0.0;    // simulated time at the gap (never mixed in)
  double final_gap = 0.0;
  std::uint64_t wire_bytes = 0;
  std::vector<double> step_seconds;  // per-epoch training wall time
};

Solve solve(Trainer& trainer, const TrainSpec& spec) {
  Solve result;
  const auto start = Clock::now();
  const auto trace = trainer.run(run_options(spec));
  result.seconds = seconds_since(start);
  const auto& points = trace.points();
  if (points.empty()) return result;
  result.epochs = points.back().epoch;
  result.train_seconds = points.back().wall_seconds;
  result.sim_seconds = points.back().sim_seconds;
  result.final_gap = points.back().gap;
  result.wire_bytes = trainer.wire_bytes();
  double previous = 0.0;
  for (const auto& point : points) {
    result.step_seconds.push_back(point.wall_seconds - previous);
    previous = point.wall_seconds;
  }
  return result;
}

/// Largest |shared − Aᵀα| a solve may leave, relative to max(1, |Aᵀα|∞).
/// Measured drift is ~1e-10 in fp32 accumulation and ~3e-9 with the
/// compressed sync exchange, whose fp16 deltas break the invariant slightly
/// (DESIGN.md §16); the bound leaves more than two orders of magnitude.
constexpr double kSharedTolerance = 1e-6;

/// The correctness checks of one solve.  The gap is recomputed from the
/// returned model with the instance's own RidgeProblem (never handed to a
/// driver) and must equal the driver's last gap exactly; the shared vector
/// must equal Aᵀα within kSharedTolerance; a repeated solve of the instance
/// must reproduce its first solve's exact counts.  Returns the shared
/// vector's relative drift.
double check(const Solve& result, const Solve& first, Trainer& trainer,
             const TrainSpec& spec, const Instance& instance,
             const Options& options, Outcome& outcome) {
  if (result.epochs == 0) {
    outcome.fail("driver returned an empty trace");
    return 0.0;
  }
  if (!(result.final_gap <= spec.target_gap)) {
    outcome.fail("missed the target gap: " + std::to_string(result.final_gap));
    return 0.0;
  }
  auto weights = trainer.weights();
  const auto shared = trainer.shared();
  if (options.perturb == "model") weights[weights.size() / 2] += 0.5F;
  const double gap = instance.checker->duality_gap(kDual, weights, shared);
  if (gap != result.final_gap) {
    outcome.fail("recomputed gap " + std::to_string(gap) +
                 " != driver gap " + std::to_string(result.final_gap));
    return 0.0;
  }
  std::vector<float> recomputed(shared.size(), 0.0F);
  linalg::csr_matvec_transposed(instance.dataset->by_row(), weights,
                                recomputed);
  double max_diff = 0.0;
  double max_abs = 1.0;
  for (std::size_t i = 0; i < shared.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(static_cast<double>(shared[i]) -
                                  recomputed[i]));
    max_abs = std::max(max_abs, std::fabs(static_cast<double>(recomputed[i])));
  }
  const double drift = max_diff / max_abs;
  if (drift > kSharedTolerance) {
    outcome.fail("shared vector drifted from A^T alpha by " +
                 std::to_string(drift));
  } else if (result.epochs != first.epochs ||
             result.sim_seconds != first.sim_seconds ||
             result.wire_bytes != first.wire_bytes) {
    outcome.fail("a repeated solve changed its exact counts");
  }
  return drift;
}

double updates_per_second(const Solve& result, const TrainSpec& spec) {
  return static_cast<double>(result.epochs) *
         static_cast<double>(spec.examples) / result.train_seconds;
}

/// The exact guards over the instances' first solves: epochs and simulated
/// seconds to the gap as means over instances, wire bytes per round over
/// all their rounds.  Each repeats bit-for-bit at a fixed seed.
struct ExactCounts {
  double epochs = 0.0;
  double sim_seconds = 0.0;
  double wire_bytes_per_round = 0.0;
  double worst_gap = 0.0;
};

ExactCounts exact_counts(const std::vector<Solve>& firsts) {
  ExactCounts counts;
  double wire = 0.0;
  double rounds = 0.0;
  for (const auto& first : firsts) {
    counts.epochs += first.epochs;
    counts.sim_seconds += first.sim_seconds;
    counts.worst_gap = std::max(counts.worst_gap, first.final_gap);
    wire += static_cast<double>(first.wire_bytes);
    rounds += first.epochs;
  }
  const auto n = static_cast<double>(firsts.size());
  counts.epochs /= n;
  counts.sim_seconds /= n;
  counts.wire_bytes_per_round = rounds > 0.0 ? wire / rounds : 0.0;
  return counts;
}

/// Exact guards, printed as info lines before the result.
void note_exact(const std::vector<Solve>& firsts, const TrainSpec& spec,
                Outcome& outcome) {
  const auto counts = exact_counts(firsts);
  outcome.note("epochs_to_gap", counts.epochs, "count");
  outcome.note("final_gap.max", counts.worst_gap, "gap");
  if (spec.driver != Driver::kLocal) {
    outcome.note("cluster.sim_s_to_gap", counts.sim_seconds, "sim_s");
    outcome.note("cluster.wire_bytes_per_round", counts.wire_bytes_per_round,
                 "bytes");
  }
}

// ---- traced run -----------------------------------------------------------

/// Name of the span that wraps exactly one local Solver::run_epoch, and of
/// the driver's per-round envelope.
struct SpanNames {
  const char* core_epoch;
  const char* round;  // nullptr for the local driver
};

SpanNames span_names(Driver driver) {
  switch (driver) {
    case Driver::kSync:
      return {"dist/local_solve", "dist/epoch"};
    case Driver::kAsync:
      return {"async/local_solve", "async/round"};
    case Driver::kLocal:
      break;
  }
  return {"train/epoch", nullptr};
}

/// Per-nnz time of the dispatched public kernels over every padded row of
/// the workload's own data, against its converged shared vector.
void time_kernels(const data::Dataset& dataset, double lambda,
                  const std::vector<float>& shared, Outcome& outcome) {
  const core::RidgeProblem problem(dataset, lambda);
  const auto rows = problem.num_coordinates(kDual);
  std::vector<sparse::SparseVectorView> views;
  double padded = 0.0;
  for (data::Index j = 0; j < rows; ++j) {
    views.push_back(problem.coordinate_vector(kDual, j));
    padded += static_cast<double>(views.back().nnz());
  }
  std::vector<float> target(shared.size());
  std::transform(shared.begin(), shared.end(), target.begin(),
                 [](float v) { return 0.5F * v + 1.0F; });
  std::vector<float> scratch = shared;
  constexpr int kReps = 9;
  const double dot_s = median_seconds(kReps, [&] {
    double acc = 0.0;
    for (const auto& view : views) acc += linalg::sparse_dot(view, shared);
    keep(acc);
  });
  const double residual_s = median_seconds(kReps, [&] {
    double acc = 0.0;
    for (const auto& view : views) {
      acc += linalg::sparse_residual_dot(view, target, shared);
    }
    keep(acc);
  });
  const double axpy_s = median_seconds(kReps, [&] {
    for (const auto& view : views) linalg::sparse_axpy(1e-9, view, scratch);
    keep(scratch[0]);
  });
  outcome.add("linalg.sparse_dot.ns_per_nnz", dot_s * 1e9 / padded);
  outcome.add("linalg.sparse_axpy.ns_per_nnz", axpy_s * 1e9 / padded);
  outcome.add("linalg.sparse_residual_dot.ns_per_nnz",
              residual_s * 1e9 / padded);
}

/// Per-entry time of the delta codec on a delta of the shared dimension.
void time_codec(const std::vector<float>& shared, std::uint64_t seed,
                Outcome& outcome) {
  util::Rng rng(seed ^ 0xc0decULL);
  std::vector<double> delta(shared.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = 1e-3 * shared[i] + 1e-5 * rng.normal();
  }
  cluster::CompressedDelta encoded;
  constexpr int kReps = 41;
  const double encode_s = median_seconds(kReps, [&] {
    encoded = cluster::encode_delta(delta);
    keep(static_cast<double>(encoded.checksum));
  });
  std::vector<double> decoded(delta.size());
  const double decode_s = median_seconds(kReps, [&] {
    cluster::decode_delta(encoded, decoded);
    keep(decoded[0]);
  });
  const auto entries = static_cast<double>(delta.size());
  outcome.add("cluster.codec.encode_ns_per_entry", encode_s * 1e9 / entries);
  outcome.add("cluster.codec.decode_ns_per_entry", decode_s * 1e9 / entries);
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

void run_traced(const TrainSpec& spec, const Options& options, Setup& setup,
                Outcome& outcome) {
  const auto names = span_names(spec.driver);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  SpanTable spans;
  std::uint64_t dropped = 0;
  std::uint64_t wire_counter = 0;
  std::uint64_t round_counter = 0;
  std::uint64_t applied = 0;
  std::uint64_t pushes = 0;
  std::uint64_t stale = 0;
  std::vector<Solve> firsts;
  std::vector<float> final_shared;
  const auto deadline = deadline_after(options.seconds);
  // Whole passes over the instances, each an untraced and a traced solve,
  // so both sample the same drift and every count covers every instance.
  for (std::size_t pass = 0; pass == 0 || Clock::now() < deadline; ++pass) {
    resample_set_up(spec, pass, setup);
    for (std::size_t i = 0; i < setup.instances.size(); ++i) {
      auto& instance = setup.instances[i];
      for (const bool traced : {false, true}) {
        auto trainer = next_trainer(spec, instance);
        if (traced) begin_traced_section();
        const auto result = solve(*trainer, spec);
        if (traced) {
          dropped += end_traced_section();
          spans.merge(SpanTable::collect());
          wire_counter += counter_value("cluster.delta.wire_bytes");
          round_counter += counter_value(spec.driver == Driver::kAsync
                                             ? "cluster.async.rounds"
                                             : "cluster.epochs");
          applied += counter_value("cluster.async.applied");
          pushes += counter_value("cluster.async.pushes");
          stale += counter_value(std::string("cluster.event.") +
                                 core::cluster_event_name(
                                     core::ClusterEventKind::kStaleDamped)) +
                   counter_value(std::string("cluster.event.") +
                                 core::cluster_event_name(
                                     core::ClusterEventKind::kStaleRejected));
        }
        ++outcome.attempted;
        if (firsts.size() == i) firsts.push_back(result);
        check(result, firsts[i], *trainer, spec, instance, options, outcome);
        (traced ? traced_s : untraced_s).push_back(result.seconds);
        if (i == 0) final_shared = trainer->shared();
      }
    }
  }

  const auto& dataset = *setup.instances.front().dataset;
  const bool local = spec.driver == Driver::kLocal;
  const auto counts = exact_counts(firsts);
  const auto traced_solves = static_cast<double>(traced_s.size());
  const double envelope_ms = sum(traced_s) * 1e3;
  const double core_epoch_ms = spans.total_ms(names.core_epoch);
  const double gap_ms = spans.total_ms("train/gap_eval");
  const auto epoch_ms = spans.durations_ms(names.core_epoch);

  outcome.add("data.generate_s", min_of(setup.generate_s));
  outcome.add(local ? "core.build_s" : "cluster.build_s",
              min_of(setup.build_s));
  outcome.add("core.epochs_to_gap", counts.epochs);
  outcome.add("core.epoch_ms.p50", quantile(epoch_ms, 0.5));
  outcome.add("core.epoch_ms.p90", quantile(epoch_ms, 0.9));
  outcome.add("core.sweep_share",
              share(spans.total_ms("seq_scd/sweep"), core_epoch_ms));
  outcome.add("core.shuffle_ms.p50",
              median(spans.durations_ms("seq_scd/shuffle")));
  outcome.add("core.gap_eval_ms.p50",
              median(spans.durations_ms("train/gap_eval")));
  outcome.add("core.gap_share", share(gap_ms, envelope_ms));
  time_kernels(dataset, spec.lambda, final_shared, outcome);
  outcome.add("obs.trace_overhead",
              min_of(traced_s) / min_of(untraced_s) - 1.0);
  outcome.add("obs.trace_dropped", static_cast<double>(dropped));
  if (dropped > 0) {
    outcome.fail("tracer dropped " + std::to_string(dropped) +
                 " events; per-layer numbers refused");
  }
  if (local) {
    outcome.add("obs.unattributed_share",
                1.0 - share(core_epoch_ms + gap_ms, envelope_ms));
    return;
  }

  const double round_ms = spans.total_ms(names.round);
  const auto rounds = spans.durations_ms(names.round);
  const double solve_share = share(core_epoch_ms, round_ms);
  outcome.add("obs.unattributed_share",
              1.0 - share(round_ms + gap_ms, envelope_ms));
  outcome.add("cluster.round_ms.p50", quantile(rounds, 0.5));
  outcome.add("cluster.round_ms.p90", quantile(rounds, 0.9));
  outcome.add("cluster.local_solve_share", solve_share);
  outcome.add("cluster.driver_share", 1.0 - solve_share);
  time_codec(final_shared, options.seed, outcome);
  outcome.add("cluster.wire_bytes_per_round",
              static_cast<double>(wire_counter) /
                  static_cast<double>(round_counter));
  outcome.add("cluster.sim_s_to_gap", counts.sim_seconds);
  if (spec.driver == Driver::kSync) {
    outcome.add("cluster.reduce_ms.p50",
                median(spans.durations_ms("dist/reduce")));
    outcome.add("cluster.broadcast_ms.p50",
                median(spans.durations_ms("dist/broadcast")));
    return;
  }
  outcome.add("cluster.apply_ms.p50",
              median(spans.durations_ms("async/apply")));
  outcome.add("cluster.async.applied_per_push",
              static_cast<double>(applied) / static_cast<double>(pushes));
  outcome.add("cluster.async.stale_events",
              static_cast<double>(stale) / traced_solves);
}

}  // namespace

Outcome run_training(const Options& options) {
  const auto spec = spec_for(options);
  Outcome outcome;
  auto setup = set_up(spec, options);
  if (options.trace) {
    run_traced(spec, options, setup, outcome);
    return outcome;
  }

  std::vector<std::vector<Solve>> solves(setup.instances.size());
  double drift = 0.0;
  const auto deadline = deadline_after(options.seconds);
  for (std::size_t pass = 0; pass == 0 || Clock::now() < deadline; ++pass) {
    resample_set_up(spec, pass, setup);
    for (std::size_t i = 0; i < setup.instances.size(); ++i) {
      auto& instance = setup.instances[i];
      auto trainer = next_trainer(spec, instance);
      solves[i].push_back(solve(*trainer, spec));
      ++outcome.attempted;
      drift = std::max(drift, check(solves[i].back(), solves[i].front(),
                                    *trainer, spec, instance, options,
                                    outcome));
      setup.heap_mb = std::max(setup.heap_mb, live_heap_mb());
    }
  }

  std::vector<double> seconds_per_epoch;
  std::vector<double> typical_seconds;
  std::vector<double> rates;
  std::vector<double> step_p50;
  std::vector<double> step_p90;
  std::vector<double> step_p99;
  std::vector<Solve> firsts;
  for (const auto& runs : solves) {
    firsts.push_back(runs.front());
    std::vector<double> instance_seconds;
    for (const auto& result : runs) {
      instance_seconds.push_back(result.seconds);
      seconds_per_epoch.push_back(result.seconds / result.epochs);
      rates.push_back(updates_per_second(result, spec));
      step_p50.push_back(quantile(result.step_seconds, 0.5));
      step_p90.push_back(quantile(result.step_seconds, 0.9));
      step_p99.push_back(quantile(result.step_seconds, 0.99));
    }
    typical_seconds.push_back(median(instance_seconds));
  }
  const double epochs_to_gap = exact_counts(firsts).epochs;
  const double time_to_gap = epochs_to_gap * min_of(seconds_per_epoch);
  outcome.add("setup_s", min_of(setup.total_s));
  outcome.add("time_to_result_s", time_to_gap);
  outcome.add("work_per_s", max_of(rates));
  outcome.add("step_p50_ms", min_of(step_p50) * 1e3);
  outcome.add("step_p90_ms", min_of(step_p90) * 1e3);
  outcome.add("heap_mb", setup.heap_mb);

  note_exact(firsts, spec, outcome);
  outcome.note("time_to_gap_s", time_to_gap, "s");
  outcome.note("time_to_gap_s.median_solve", mean(typical_seconds), "s");
  outcome.note("updates_per_s", max_of(rates), "1/s");
  outcome.note("updates_per_s.median_solve", median(rates), "1/s");
  outcome.note("peak_rss_mb", peak_rss_mb(), "MB");
  outcome.note("instances", static_cast<double>(solves.size()), "count");
  outcome.note("setup_samples", static_cast<double>(setup.total_s.size()),
               "count");
  outcome.note("solves", static_cast<double>(outcome.attempted), "count");
  outcome.note("step_p99_ms", min_of(step_p99) * 1e3, "ms");
  outcome.note("shared_drift", drift, "ratio");
  return outcome;
}

}  // namespace wallbench
