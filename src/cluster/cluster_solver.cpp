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

const DistConfig& validated(const DistConfig& config) {
  if (!(config.straggler_grace > 1.0)) {
    throw std::invalid_argument(
        "DistributedSolver: straggler_grace must be > 1 (the deadline must "
        "allow at least a full healthy epoch), got " +
        std::to_string(config.straggler_grace));
  }
  return config;
}

const AsyncConfig& validated(const AsyncConfig& config) {
  if (config.staleness_window < 0) {
    throw std::invalid_argument(
        "AsyncSolver: staleness_window must be >= 0 (0 = auto)");
  }
  for (const auto& event : config.membership) {
    if (event.round < 1 || event.worker < 0 ||
        event.worker >= config.num_workers) {
      throw std::invalid_argument(
          "AsyncSolver: membership event (round " +
          std::to_string(event.round) + ", worker " +
          std::to_string(event.worker) +
          ") must name a round >= 1 and a valid worker slot");
    }
  }
  return config;
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
                             const DistConfig& config)
    : ClusterSolver(global, validated(config), /*barrier=*/true,
                    config.comm_overlap) {
  straggler_grace_ = config.straggler_grace;
  comm_overlap_ = config.comm_overlap;
}

ClusterSolver::ClusterSolver(const data::Dataset& global,
                             const AsyncConfig& config)
    : ClusterSolver(global, validated(config), /*barrier=*/false,
                    /*comm_overlap=*/false) {
  staleness_window_ = config.staleness_window;
  staleness_policy_ = config.staleness_policy;
  membership_ = config.membership;
}

ClusterSolver::ClusterSolver(const data::Dataset& global,
                             const ClusterConfig& config, bool barrier,
                             bool comm_overlap)
    : config_(config),
      barrier_(barrier),
      global_problem_(global, config.lambda),
      global_workload_(
          core::TimingWorkload::for_dataset(global, config.formulation)),
      injector_(config.faults),
      global_(&global),
      who_(barrier ? "DistributedSolver" : "AsyncSolver"),
      master_track_(barrier ? kMasterTrack : kAsyncMasterTrack) {
  const auto dim = global_problem_.num_coordinates(config.formulation);
  validate_config(who_, config, dim);
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
    // reproduces Partition::random bit-for-bit.  Only a barrier round has a
    // reduce to overlap: no-barrier pushes are already point-to-point.
    placement::CostOptions cost_options;
    cost_options.local_passes = config.local_epochs_per_round;
    cost_options.comm_overlap = comm_overlap;
    cost_options.seconds_per_vector_element =
        config.local_solver.cpu_cost.seconds_per_vector_element;
    cost_options.delta_wire_bytes = delta_leg_bytes_;
    placement::PlacementCostModel cost_model(config.fleet, dim,
                                             global_workload_, config.network,
                                             cost_options);
    placement_result_ =
        placement::plan_placement(cost_model, config.placement);
    partition_ = Partition::random_weighted(dim, placement_result_->sizes,
                                            rng);
  } else {
    partition_ = Partition::random(dim, config.num_workers, rng);
  }
  shared_.assign(global_problem_.shared_dim(config.formulation), 0.0F);

  // A round's local epochs stream every stored entry once per pass; the
  // pool is built only when spreading them over the workers' threads is
  // predicted to beat the calling thread alone.
  const auto& dispatch = core::pool_dispatch();
  const std::uint64_t round_entries =
      global.nnz() *
      static_cast<std::uint64_t>(config.local_epochs_per_round);
  if (dispatch.use_pool(round_entries, config.num_workers)) {
    pool_ = std::make_unique<util::ThreadPool>(static_cast<std::size_t>(
        dispatch.effective_threads(config.num_workers)));
  }

  const auto workers = static_cast<std::size_t>(config.num_workers);
  cores_.reserve(workers);
  workers_.resize(workers);
  for (std::size_t k = 0; k < workers; ++k) {
    auto& local = *cores_.emplace_back(std::make_unique<WorkerCore>());
    // One task per worker slot, writing only that slot.
    auto build = [this, &global, &local, &worker = workers_[k], k] {
      init_worker_core(local, global, partition_, k, config_.lambda,
                       local_config(k));
      // Calibrate the nominal per-epoch compute time from a throwaway
      // probe solver on the same shard: the timing models are
      // state-independent, so this one number makes the event timeline a
      // pure function of (config, seeds) — the worker's real permutation
      // stream stays untouched and the numerics never feed back into the
      // clock.
      auto probe = core::make_solver(*local.problem, local_config(k));
      worker.compute_seconds = probe->run_epoch().sim_seconds;
    };
    if (pool_) {
      local.epochs.start(*pool_, std::move(build));
    } else {
      build();
    }
  }
  for (auto& local : cores_) local->epochs.join();

  const std::string prefix = barrier ? "dist" : "async";
  obs::set_track_name(master_track_, prefix + "/master");
  obs::set_track_name(attribution_track(master_track_),
                      prefix + "/attribution (sim)");
  for (int k = 0; k < config.num_workers; ++k) {
    obs::set_track_name(worker_track(master_track_, k),
                        prefix + "/worker " + std::to_string(k));
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

double ClusterSolver::duality_gap(util::ThreadPool* pool) const {
  const auto weights = global_weights();
  return global_problem_.duality_gap(config_.formulation, weights, shared_,
                                     pool);
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

bool ClusterSolver::send_delta(std::span<const float> local,
                               std::span<const float> base, bool corrupt,
                               std::vector<double>& delta) {
  delta.resize(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    delta[i] = static_cast<double>(local[i]) - static_cast<double>(base[i]);
  }
  const std::size_t dense = dense_delta_wire_bytes(delta.size());
  std::size_t wire_bytes = dense;
  bool verified = true;
  if (config_.compress_deltas) {
    // A transit flip lands in the quantized payload; the transit hash over
    // the encoded image must still catch it.
    encode_delta(delta, frame_);
    wire_bytes = frame_.wire_bytes();
    if (corrupt) {
      const std::uint64_t sent = frame_.checksum;
      corrupt_compressed_in_transit(frame_);
      verified = compressed_delta_checksum(frame_) == sent;
    }
    if (verified) decode_delta(frame_, delta);
  } else if (corrupt) {
    // The worker checksums its delta before sending; the master recomputes
    // on receipt and discards on mismatch — never silently aggregated.
    const std::uint64_t sent = delta_checksum(delta);
    corrupt_in_transit(delta);
    verified = delta_checksum(delta) == sent;
  }
  // The bytes crossed the wire either way; the raw fp64 size is recorded as
  // the baseline.
  delta_bytes_on_wire_ += wire_bytes;
  delta_bytes_dense_ += dense;
  obs::metrics().counter("cluster.delta.wire_bytes").add(wire_bytes);
  obs::metrics().counter("cluster.delta.dense_bytes").add(dense);
  return verified;
}

double ClusterSolver::choose_gamma(std::span<const double> dshared,
                                   std::span<const std::size_t> movers,
                                   double fallback) const {
  if (movers.empty()) return 0.0;  // nothing landed; the model is untouched
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
  for (const std::size_t k : movers) {
    const auto& worker = *cores_[k];
    const auto labels = worker.shard.labels();
    const auto& weights = worker.solver->state().weights;
    for (std::size_t j = 0; j < weights.size(); ++j) {
      const double from = worker.weights_start[j];
      // Labels are per example: only dual coordinates index them.
      add_gamma_terms(f, dual ? labels[j] : 0.0, from, weights[j] - from,
                      pterms, dterms);
    }
  }
  return line_search_gamma(
      f, shared_, dshared, global_->labels(), pterms, dterms,
      static_cast<double>(global_problem_.num_examples()), config_.lambda,
      fallback);
}

void ClusterSolver::apply_step(std::span<const double> dshared,
                               std::span<const std::size_t> movers,
                               double step) {
  for (std::size_t i = 0; i < shared_.size(); ++i) {
    shared_[i] = static_cast<float>(shared_[i] + step * dshared[i]);
  }
  for (const std::size_t k : movers) {
    auto& worker = *cores_[k];
    auto& weights = worker.solver->mutable_state().weights;
    for (std::size_t j = 0; j < weights.size(); ++j) {
      const double from = worker.weights_start[j];
      weights[j] = static_cast<float>(from + step * (weights[j] - from));
    }
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

core::ConvergenceTrace ClusterSolver::run(const core::RunOptions& options,
                                          const CheckpointConfig& ckpt) {
  std::size_t seen_events = events_.size();
  int last_checkpointed = current_epoch();
  const auto write_checkpoint = [&](core::ConvergenceTrace& trace, int epoch) {
    obs::TraceSpan span("train/checkpoint", master_track_, epoch);
    write_checkpoint_file(ckpt.path);
    trace.add_event({epoch, -1, core::ClusterEventKind::kCheckpoint});
    obs::metrics().counter("cluster.event.checkpoint").add();
    obs::trace_instant("checkpoint", master_track_, epoch);
  };
  const auto one_round = [&](int epoch, core::ConvergenceTrace& trace) {
    const auto report = run_epoch();
    for (; seen_events < events_.size(); ++seen_events) {
      trace.add_event(events_[seen_events]);
    }
    if (ckpt.enabled() && epoch % ckpt.every_epochs == 0) {
      write_checkpoint(trace, epoch);
      last_checkpointed = epoch;
    }
    return report;
  };
  auto trace = core::run_loop(
      options,
      {.epochs_done = current_epoch(),
       .setup_sim_seconds = setup_sim_seconds(),
       .gap_nnz = global_problem().dataset().nnz(),
       .track = master_track_},
      one_round, [&](util::ThreadPool* pool) { return duality_gap(pool); },
      [&](core::TracePoint& point) {
        point.gamma = last_gamma();
        point.contributors = last_contributors();
      });
  // The call covers its own work: no local epochs are left computing.
  for (auto& local : cores_) local->epochs.join();
  // A diverged state is not worth resuming (and write_model refuses its
  // non-finite entries).
  if (ckpt.enabled() && current_epoch() > last_checkpointed &&
      !trace.diverged()) {
    write_checkpoint(trace, current_epoch());
  }
  return trace;
}

}  // namespace tpa::cluster
