#include "cluster/cluster_solver.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "cluster/delta_codec.hpp"
#include "core/cost_model.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace tpa::cluster {
namespace {

bool is_gpu_solver_kind(core::SolverKind kind) {
  return kind == core::SolverKind::kTpaM4000 ||
         kind == core::SolverKind::kTpaTitanX;
}

// Every check is written so that NaN fails it.
void validate_config(const std::string& who, const ClusterConfig& config,
                     data::Index partitionable_dim) {
  if (config.num_workers <= 0) {
    throw std::invalid_argument(who + ": num_workers must be positive, got " +
                                std::to_string(config.num_workers));
  }
  if (static_cast<data::Index>(config.num_workers) > partitionable_dim) {
    throw std::invalid_argument(
        who + ": num_workers (" + std::to_string(config.num_workers) +
        ") exceeds the partitionable dimension (" +
        std::to_string(partitionable_dim) + " " +
        (config.formulation == core::Formulation::kPrimal ? "features"
                                                          : "examples") +
        " for the " + std::string(formulation_name(config.formulation)) +
        " form); some workers would own no coordinates");
  }
  if (config.local_epochs_per_round <= 0) {
    throw std::invalid_argument(
        who + ": local_epochs_per_round must be >= 1, got " +
        std::to_string(config.local_epochs_per_round));
  }
  if (config.max_restarts < 0) {
    throw std::invalid_argument(who + ": max_restarts must be non-negative");
  }
  if (!(config.delta_threshold >= 0.0) ||
      !std::isfinite(config.delta_threshold)) {
    throw std::invalid_argument(who +
                                ": delta_threshold must be finite and >= 0, "
                                "got " +
                                std::to_string(config.delta_threshold));
  }
  if (config.aggregation == AggregationMode::kFixed &&
      !std::isfinite(config.fixed_gamma)) {
    throw std::invalid_argument(who + ": fixed_gamma must be finite, got " +
                                std::to_string(config.fixed_gamma));
  }
  config.network.validate();
  if (!config.fleet.empty() &&
      static_cast<int>(config.fleet.size()) != config.num_workers) {
    throw std::invalid_argument(
        who + ": fleet has " + std::to_string(config.fleet.size()) +
        " devices but num_workers is " + std::to_string(config.num_workers));
  }
}

// Fills `core` in place: the problem holds a reference to the shard, so the
// WorkerCore must already sit at its final address.
void init_worker_core(WorkerCore& core, const data::Dataset& global,
                      const Partition& partition, std::size_t slot,
                      double lambda, const core::SolverConfig& local_solver) {
  core.shard =
      make_shard(global, local_solver.formulation, partition.owned[slot]);
  core.problem = std::make_unique<core::RidgeProblem>(
      core.shard, lambda, global.num_examples());
  core.solver = core::make_solver(*core.problem, local_solver);
}

}  // namespace

ClusterSolver::ClusterSolver(const data::Dataset& global,
                             const ClusterConfig& config, const char* who,
                             std::int32_t master_track,
                             const std::string& track_prefix,
                             bool comm_overlap)
    : config_(config),
      global_problem_(global, config.lambda),
      global_workload_(
          core::TimingWorkload::for_dataset(global, config.formulation)),
      injector_(config.faults),
      global_(&global),
      who_(who),
      master_track_(master_track) {
  const auto dim = global_problem_.num_coordinates(config.formulation);
  validate_config(who, config, dim);
  const auto shared_dim = static_cast<std::size_t>(global_workload_.shared_dim);
  model_bytes_ = shared_dim * sizeof(float);
  delta_leg_bytes_ = config.compress_deltas
                         ? quantized_delta_wire_bytes(shared_dim)
                         : model_bytes_;
  const bool heterogeneous = !config.fleet.empty();
  gpu_local_ = heterogeneous ? placement::fleet_has_gpu(config.fleet)
                             : is_gpu_solver_kind(config.local_solver.kind);

  util::Rng rng(config.seed);
  if (heterogeneous) {
    // Plan the partition sizes against the placement cost model, then deal
    // the same permutation draw the legacy path uses.  With a homogeneous
    // fleet the planned sizes equal the uniform split and random_weighted
    // reproduces Partition::random bit-for-bit.
    placement::CostOptions cost_options;
    cost_options.local_passes = config.local_epochs_per_round;
    cost_options.comm_overlap = comm_overlap;
    cost_options.seconds_per_vector_element =
        config.local_solver.cpu_cost.seconds_per_vector_element;
    cost_options.delta_wire_bytes = delta_leg_bytes_;
    placement::PlacementCostModel cost_model(config.fleet, dim,
                                             global_workload_, config.network,
                                             cost_options);
    placement::AnnealConfig anneal;
    anneal.seed = config.placement_seed;
    placement_result_ =
        placement::plan_placement(cost_model, config.placement, anneal);
    partition_ = Partition::random_weighted(dim, placement_result_->sizes,
                                            rng);
  } else {
    partition_ = Partition::random(dim, config.num_workers, rng);
  }
  shared_.assign(global_problem_.shared_dim(config.formulation), 0.0F);

  cores_.reserve(static_cast<std::size_t>(config.num_workers));
  for (std::size_t k = 0; k < static_cast<std::size_t>(config.num_workers);
       ++k) {
    auto worker = std::make_unique<WorkerCore>();
    init_worker_core(*worker, global, partition_, k, config.lambda,
                     local_config(k));
    cores_.push_back(std::move(worker));
  }

  obs::set_track_name(master_track, track_prefix + "/master");
  obs::set_track_name(attribution_track(master_track),
                      track_prefix + "/attribution (sim)");
  for (int k = 0; k < config.num_workers; ++k) {
    obs::set_track_name(worker_track(master_track, k),
                        track_prefix + "/worker " + std::to_string(k));
  }
}

core::SolverConfig ClusterSolver::local_config(std::size_t k) const {
  core::SolverConfig local =
      config_.fleet.empty()
          ? config_.local_solver
          : config_.fleet[k].solver_config(config_.local_solver);
  local.formulation = config_.formulation;
  local.seed += static_cast<std::uint64_t>(k);
  return local;
}

double ClusterSolver::host_coordinates(std::size_t k) const {
  const auto coordinates =
      static_cast<double>(global_workload_.num_coordinates);
  if (config_.fleet.empty()) return coordinates / config_.num_workers;
  return coordinates * static_cast<double>(partition_.owned[k].size()) /
         static_cast<double>(
             global_problem_.num_coordinates(config_.formulation));
}

double ClusterSolver::run_local_epochs(std::size_t k) {
  auto& worker = *cores_[k];
  auto& state = worker.solver->mutable_state();
  state.shared.assign(shared_.begin(), shared_.end());
  worker.weights_start = state.weights;
  double seconds = 0.0;
  for (int pass = 0; pass < config_.local_epochs_per_round; ++pass) {
    seconds += worker.solver->run_epoch().sim_seconds;
  }
  return seconds;
}

std::span<const float> ClusterSolver::committed_weights(std::size_t k) const {
  return cores_[k]->solver->state().weights;
}

double ClusterSolver::duality_gap(util::ThreadPool* pool) const {
  const auto weights = global_weights();
  return global_problem_.duality_gap(config_.formulation, weights, shared_,
                                     pool);
}

void ClusterSolver::set_merge_every(int merge_every) {
  for (auto& core : cores_) core->solver->set_merge_every(merge_every);
}

double ClusterSolver::setup_sim_seconds() const {
  double slowest = 0.0;
  for (const auto& core : cores_) {
    slowest = std::max(slowest, core->solver->setup_sim_seconds());
  }
  return slowest;
}

std::vector<float> ClusterSolver::global_weights() const {
  std::vector<float> weights(
      global_problem_.num_coordinates(config_.formulation), 0.0F);
  for (std::size_t k = 0; k < cores_.size(); ++k) {
    const auto local = committed_weights(k);
    const auto& owned = partition_.owned[k];
    for (std::size_t j = 0; j < owned.size(); ++j) {
      weights[owned[j]] = local[j];
    }
  }
  return weights;
}

void ClusterSolver::record_event(int worker, core::ClusterEventKind kind) {
  // A trace-level ClusterEvent, a cluster.event.* counter (so the
  // --metrics-out report matches ConvergenceTrace::count_events exactly)
  // and a trace instant on the affected worker's track.
  events_.push_back({round_, worker, kind});
  obs::metrics()
      .counter(std::string("cluster.event.") + core::cluster_event_name(kind))
      .add();
  obs::trace_instant(core::cluster_event_name(kind),
                     worker_track(master_track_, worker), round_);
}

bool ClusterSolver::count_crash(int worker, int& crash_count) {
  ++crash_count;
  record_event(worker, core::ClusterEventKind::kCrash);
  if (crash_count <= config_.max_restarts) return false;
  record_event(worker, core::ClusterEventKind::kEvict);
  return true;
}

ClusterSolver::Transit ClusterSolver::send_delta(
    std::span<const float> local, std::span<const float> base, bool corrupt,
    std::vector<double>& delta) {
  delta.resize(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    delta[i] = static_cast<double>(local[i]) - static_cast<double>(base[i]);
  }
  Transit transit;
  if (config_.compress_deltas) {
    // A transit flip lands in the quantized payload; the transit hash over
    // the encoded image must still catch it.
    encode_delta(delta, DeltaCodecConfig{config_.delta_threshold, 256},
                 frame_);
    transit.wire_bytes = frame_.wire_bytes();
    if (corrupt) {
      const std::uint64_t sent = frame_.checksum;
      corrupt_compressed_in_transit(frame_);
      transit.verified = compressed_delta_checksum(frame_) == sent;
      if (!transit.verified) return transit;
    }
    decode_delta(frame_, delta);
    return transit;
  }
  transit.wire_bytes = dense_delta_wire_bytes(delta.size());
  if (corrupt) {
    // The worker checksums its delta before sending; the master recomputes
    // on receipt and discards on mismatch — never silently aggregated.
    const std::uint64_t sent = delta_checksum(delta);
    corrupt_in_transit(delta);
    transit.verified = delta_checksum(delta) == sent;
  }
  return transit;
}

void ClusterSolver::charge_wire(std::size_t wire_bytes) {
  const std::size_t dense = dense_delta_wire_bytes(shared_.size());
  delta_bytes_on_wire_ += wire_bytes;
  delta_bytes_dense_ += dense;
  obs::metrics().counter("cluster.delta.wire_bytes").add(wire_bytes);
  obs::metrics().counter("cluster.delta.dense_bytes").add(dense);
}

template <typename Fn>
void ClusterSolver::visit_move(const WorkerMove& move, Fn&& fn) const {
  const auto& worker = *cores_[move.worker];
  const auto& weights = worker.solver->state().weights;
  for (std::size_t j = 0; j < weights.size(); ++j) {
    const double from =
        move.late_dweights != nullptr ? weights[j] : worker.weights_start[j];
    const double delta = move.late_dweights != nullptr
                             ? (*move.late_dweights)[j]
                             : weights[j] - from;
    fn(j, from, delta);
  }
}

double ClusterSolver::choose_gamma(std::span<const double> dshared,
                                   std::span<const WorkerMove> moves,
                                   double fallback) const {
  if (moves.empty()) return 0.0;  // nothing landed; the model is untouched
  switch (config_.aggregation) {
    case AggregationMode::kAveraging:
      return fallback;
    case AggregationMode::kFixed:
      return config_.fixed_gamma;
    case AggregationMode::kAdaptive:
      break;
  }
  // Worker-side scalars, computable on each worker because coordinate
  // ownership is disjoint; the master completes them.
  const auto f = config_.formulation;
  const bool dual = f == core::Formulation::kDual;
  PrimalGammaTerms pterms;
  DualGammaTerms dterms;
  for (const auto& move : moves) {
    const auto labels = cores_[move.worker]->shard.labels();
    visit_move(move, [&](std::size_t j, double from, double delta) {
      // Labels are per example: only dual coordinates index them.
      add_gamma_terms(f, dual ? labels[j] : 0.0, from, delta, pterms, dterms);
    });
  }
  return line_search_gamma(
      f, shared_, dshared, global_->labels(), pterms, dterms,
      static_cast<double>(global_problem_.num_examples()), config_.lambda,
      fallback);
}

void ClusterSolver::apply_step(std::span<const double> dshared,
                               std::span<const WorkerMove> moves,
                               double step) {
  for (std::size_t i = 0; i < shared_.size(); ++i) {
    shared_[i] = static_cast<float>(shared_[i] + step * dshared[i]);
  }
  for (const auto& move : moves) {
    auto& weights = cores_[move.worker]->solver->mutable_state().weights;
    visit_move(move, [&](std::size_t j, double from, double delta) {
      weights[j] = static_cast<float>(from + step * delta);
    });
  }
}

void ClusterSolver::close_round(const obs::RoundAttribution& attr,
                                double round_seconds) {
  last_attr_ = attr;
  attr_totals_ += attr;
  ++attr_rounds_;
  obs::record_round_attribution(attr, attr_totals_, round_seconds,
                                attr_clock_seconds_, round_,
                                attribution_track(master_track_));
  attr_clock_seconds_ += round_seconds;
}

core::SavedModel ClusterSolver::saved_model() const {
  core::SavedModel saved;
  saved.formulation = config_.formulation;
  saved.lambda = config_.lambda;
  saved.epoch = static_cast<std::uint32_t>(round_);
  saved.weights = global_weights();
  saved.shared = shared_;
  return saved;
}

void ClusterSolver::validate_checkpoint(const core::SavedModel& saved) const {
  const std::string prefix = std::string(who_) + "::restore: ";
  if (round_ != 0) {
    throw std::logic_error(prefix +
                           "must be called on a fresh solver (rounds have "
                           "already run)");
  }
  if (saved.formulation != config_.formulation) {
    throw std::invalid_argument(prefix + "checkpoint formulation mismatch");
  }
  if (saved.weights.size() !=
          static_cast<std::size_t>(
              global_problem_.num_coordinates(config_.formulation)) ||
      saved.shared.size() != shared_.size()) {
    throw std::invalid_argument(
        prefix + "checkpoint dimensions do not match the dataset/partition");
  }
  if (saved.lambda != config_.lambda) {
    throw std::invalid_argument(prefix + "checkpoint lambda " +
                                std::to_string(saved.lambda) +
                                " != configured " +
                                std::to_string(config_.lambda));
  }
}

void ClusterSolver::scatter_checkpoint(const core::SavedModel& saved) {
  shared_.assign(saved.shared.begin(), saved.shared.end());
  for (std::size_t k = 0; k < cores_.size(); ++k) {
    auto& worker = *cores_[k];
    auto& state = worker.solver->mutable_state();
    const auto& owned = partition_.owned[k];
    for (std::size_t j = 0; j < owned.size(); ++j) {
      state.weights[j] = saved.weights[owned[j]];
    }
    state.shared.assign(shared_.begin(), shared_.end());
    worker.weights_start = state.weights;
  }
}

core::ConvergenceTrace ClusterSolver::run(const core::RunOptions& options,
                                          const CheckpointConfig& ckpt) {
  core::ConvergenceTrace trace;
  double sim_total =
      options.include_setup_time ? setup_sim_seconds() : 0.0;
  double wall_total = 0.0;
  const int start_epoch = current_epoch();
  std::size_t seen_events = events_.size();
  int last_checkpointed = start_epoch;
  const int interval = core::effective_gap_interval(options);
  if (core::checked_merge_every(options.merge_every, "RunOptions") != 0) {
    set_merge_every(options.merge_every);
  }
  const auto write_checkpoint = [&](int epoch) {
    obs::TraceSpan span("train/checkpoint", master_track_, epoch);
    write_checkpoint_file(ckpt.path);
    trace.add_event({epoch, -1, core::ClusterEventKind::kCheckpoint});
    obs::metrics().counter("cluster.event.checkpoint").add();
    obs::trace_instant("checkpoint", master_track_, epoch);
  };
  // Same crossover as run_solver: only pay for a pool when the global gap
  // evaluation is predicted to beat the serial pass on this host.
  const int gap_threads = core::pool_dispatch().dispatch_threads(
      global_problem().dataset().nnz(), options.gap_threads);
  std::unique_ptr<util::ThreadPool> gap_pool;
  if (gap_threads > 1) {
    gap_pool = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(gap_threads));
  }
  for (int epoch = start_epoch + 1; epoch <= options.max_epochs; ++epoch) {
    const auto report = run_epoch();
    sim_total += report.sim_seconds;
    wall_total += report.wall_seconds;
    for (; seen_events < events_.size(); ++seen_events) {
      trace.add_event(events_[seen_events]);
    }
    if (ckpt.enabled() && epoch % ckpt.every_epochs == 0) {
      write_checkpoint(epoch);
      last_checkpointed = epoch;
    }
    if (epoch % interval == 0 || epoch == options.max_epochs) {
      core::TracePoint point;
      point.epoch = epoch;
      {
        obs::TraceSpan span("train/gap_eval", master_track_, epoch);
        point.gap = duality_gap(gap_pool.get());
      }
      obs::metrics().counter("train.gap_evals").add();
      point.sim_seconds = sim_total;
      point.wall_seconds = wall_total;
      point.gamma = last_gamma();
      point.contributors = last_contributors();
      trace.add(point);
      if (options.target_gap > 0.0 && point.gap <= options.target_gap) break;
    }
  }
  if (ckpt.enabled() && current_epoch() > last_checkpointed) {
    write_checkpoint(current_epoch());
  }
  return trace;
}

}  // namespace tpa::cluster
