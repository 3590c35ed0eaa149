#include "cluster/dist_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "gpusim/device.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace tpa::cluster {

const char* worker_status_name(WorkerStatus status) {
  switch (status) {
    case WorkerStatus::kActive:
      return "active";
    case WorkerStatus::kInFlight:
      return "in-flight";
    case WorkerStatus::kBackoff:
      return "backoff";
    case WorkerStatus::kEvicted:
      return "evicted";
  }
  return "?";
}

DistributedSolver::DistributedSolver(const data::Dataset& global,
                                     const DistConfig& config)
    : ClusterSolver(global, config, "DistributedSolver", kMasterTrack, "dist",
                    config.comm_overlap),
      straggler_grace_(config.straggler_grace),
      comm_overlap_(config.comm_overlap),
      workers_(static_cast<std::size_t>(config.num_workers)) {
  if (!(config.straggler_grace > 1.0)) {
    throw std::invalid_argument(
        "DistributedSolver: straggler_grace must be > 1 (the deadline must "
        "allow at least a full healthy epoch), got " +
        std::to_string(config.straggler_grace));
  }
}

void DistributedSolver::handle_crash(Worker& worker, int index) {
  // The in-progress epoch (buffered or not) is lost; the worker's committed
  // weights survive because the master re-seeds the replacement shard from
  // its own assembled state on restart (DESIGN.md §8).
  worker.pending.reset();
  if (count_crash(index, worker.crash_count)) {
    worker.status = WorkerStatus::kEvicted;
  } else {
    worker.status = WorkerStatus::kBackoff;
    worker.backoff_remaining = 1 << (worker.crash_count - 1);
  }
}

core::EpochReport DistributedSolver::run_epoch() {
  const util::WallTimer timer;
  ++round_;
  const int epoch = round_;
  obs::TraceSpan epoch_span("dist/epoch", kMasterTrack, epoch);
  obs::metrics().counter("cluster.epochs").add();
  const int local_passes = config_.local_epochs_per_round;
  const auto num_workers = workers_.size();

  enum class Outcome { kIdle, kFresh, kLate };
  std::vector<Outcome> outcome(num_workers, Outcome::kIdle);
  std::vector<double> run_seconds(num_workers, 0.0);
  std::vector<FaultEvent> fault(num_workers);
  std::vector<bool> ran(num_workers, false);
  std::uint64_t updates = 0;

  // ---- Phase 1: advance every worker's state machine; run the active
  // ones.  Every worker consumes exactly `local_passes` permutations per
  // outer epoch — run, buffered, or skipped — so that stream positions stay
  // the pure function of the epoch counter that restore() relies on.
  for (std::size_t k = 0; k < num_workers; ++k) {
    auto& worker = workers_[k];
    auto& local = core(k);
    const int index = static_cast<int>(k);

    if (worker.status == WorkerStatus::kEvicted ||
        worker.status == WorkerStatus::kBackoff) {
      local.solver->skip_epoch_randomness(local_passes);
      if (worker.status == WorkerStatus::kBackoff &&
          --worker.backoff_remaining <= 0) {
        worker.status = WorkerStatus::kActive;
        record_event(index, core::ClusterEventKind::kRestart);
      }
      continue;
    }

    // A crash costs the whole local epoch; a straggler is still on its last
    // one.  Neither runs this round.
    fault[k] = injector_.query(epoch, index);
    if (fault[k].kind == FaultKind::kCrash ||
        worker.status == WorkerStatus::kInFlight) {
      local.solver->skip_epoch_randomness(local_passes);
      if (fault[k].kind == FaultKind::kCrash) {
        handle_crash(worker, index);
      } else if (++worker.pending->rounds_done >=
                 worker.pending->rounds_needed) {
        outcome[k] = Outcome::kLate;  // incorporated below
      }
      continue;
    }

    // Broadcast: the worker starts its epoch from the master's shared
    // vector (its local copy then diverges as it applies local updates).
    obs::TraceSpan solve_span("dist/local_solve",
                              worker_track(kMasterTrack, index), epoch);
    if (epoch > 1) {
      // Close the arrow from last round's broadcast: this solve consumes the
      // γ-scaled model the master published then.
      obs::trace_flow_end("flow/model",
                          model_flow_id(kMasterTrack, epoch - 1, index),
                          worker_track(kMasterTrack, index));
    }
    run_seconds[k] = run_local_epochs(k);
    ran[k] = true;
    updates += local.solver->state().weights.size();
    // Open the delta arrow inside the solve span: the push to the master.
    obs::trace_flow_begin("flow/delta",
                          delta_flow_id(kMasterTrack, epoch, index),
                          worker_track(kMasterTrack, index));
  }

  // Phases 2–4 compute values consumed across phase boundaries, so their
  // spans use explicit begin timestamps instead of nested RAII scopes.
  const bool tracing = obs::trace_enabled();

  // ---- Phase 2: the straggler deadline, from the timing breakdown: the
  // master waits grace x (slowest healthy compute + network round) before
  // aggregating without the laggards.
  const double wait_begin_us = tracing ? obs::trace_now_us() : 0.0;
  const double net_round =
      config_.network.reduce_seconds(delta_leg_bytes_, config_.num_workers) +
      config_.network.broadcast_seconds(model_bytes_, config_.num_workers);
  double healthy_max = 0.0;
  double runner_max = 0.0;
  for (std::size_t k = 0; k < num_workers; ++k) {
    if (!ran[k]) continue;
    runner_max = std::max(runner_max, run_seconds[k]);
    if (fault[k].kind != FaultKind::kStall) {
      healthy_max = std::max(healthy_max, run_seconds[k]);
    }
  }
  if (healthy_max == 0.0) healthy_max = runner_max;  // every runner stalled
  last_deadline_seconds_ = straggler_grace_ * (healthy_max + net_round);
  if (tracing) {
    obs::trace_complete("dist/straggler_wait", wait_begin_us,
                        obs::trace_now_us() - wait_begin_us, kMasterTrack,
                        epoch);
  }

  // ---- Phase 3: transit outcomes for this round's runners.
  const double reduce_begin_us = tracing ? obs::trace_now_us() : 0.0;
  double compute_max = 0.0;  // slowest delta that the master waited for
  double crit_compute = 0.0;  // its *nominal* compute (stall inflation is
                              // charged to straggler wait, not compute)
  bool any_deadline_miss = false;
  std::vector<double> fresh_arrivals;  // delta-on-the-wire times (overlap)
  for (std::size_t k = 0; k < num_workers; ++k) {
    if (!ran[k]) continue;
    auto& worker = workers_[k];
    auto& local = core(k);
    auto& state = local.solver->mutable_state();
    const int index = static_cast<int>(k);
    const double effective =
        fault[k].kind == FaultKind::kStall
            ? run_seconds[k] * std::max(1.0, fault[k].stall_factor)
            : run_seconds[k];

    if (fault[k].kind == FaultKind::kStall &&
        effective > last_deadline_seconds_) {
      // Missed the deadline: buffer the stale delta — exactly the image the
      // master will eventually receive — and keep computing.  Rolling the
      // visible weights back to the epoch start keeps the assembled global
      // state consistent until the delta finally lands.
      PendingDelta pending;
      pending.wire_bytes =
          send_delta(state.shared, shared_, /*corrupt=*/false, pending.dshared)
              .wire_bytes;
      pending.dweights.resize(state.weights.size());
      for (std::size_t j = 0; j < state.weights.size(); ++j) {
        pending.dweights[j] = static_cast<float>(
            static_cast<double>(state.weights[j]) - local.weights_start[j]);
      }
      pending.rounds_needed = std::max(
          2, static_cast<int>(std::ceil(effective / last_deadline_seconds_)));
      pending.rounds_done = 1;
      pending.epoch_started = epoch;
      state.weights = local.weights_start;
      worker.pending = std::move(pending);
      worker.status = WorkerStatus::kInFlight;
      any_deadline_miss = true;
      record_event(index, core::ClusterEventKind::kDeadlineMiss);
      continue;
    }

    if (fault[k].kind == FaultKind::kDropDelta) {
      state.weights = local.weights_start;
      record_event(index, core::ClusterEventKind::kDeltaDropped);
      continue;
    }

    if (fault[k].kind == FaultKind::kCorruptDelta) {
      const Transit transit =
          send_delta(state.shared, shared_, /*corrupt=*/true, received_);
      charge_wire(transit.wire_bytes);
      if (!transit.verified) {
        state.weights = local.weights_start;
        record_event(index, core::ClusterEventKind::kDeltaCorrupted);
        continue;
      }
      // Unreachable (a bit flip always changes the transit hash), but if the
      // check ever passed the delta is byte-identical and safe to use.
    }

    outcome[k] = Outcome::kFresh;
    if (effective > compute_max) {
      compute_max = effective;
      crit_compute = run_seconds[k];
    }
    fresh_arrivals.push_back(effective);
  }

  // ---- Phase 4: Reduce the surviving deltas on the master, summed in
  // worker-index order.
  std::vector<double> dshared(shared_.size(), 0.0);
  std::vector<WorkerMove> moves;
  for (std::size_t k = 0; k < num_workers; ++k) {
    if (outcome[k] == Outcome::kIdle) continue;
    const auto& worker = workers_[k];
    // Close this delta's arrow inside the master's reduce span.  A late
    // delta closes the arrow opened the round it was computed.
    obs::trace_flow_end(
        "flow/delta",
        delta_flow_id(kMasterTrack,
                      outcome[k] == Outcome::kFresh
                          ? epoch
                          : worker.pending->epoch_started,
                      static_cast<int>(k)),
        kMasterTrack);
    if (outcome[k] == Outcome::kFresh) {
      // Δw^(t,k), summed into the master's accumulator (Reduce).
      const auto& state = core(k).solver->state();
      charge_wire(
          send_delta(state.shared, shared_, /*corrupt=*/false, received_)
              .wire_bytes);
      for (std::size_t i = 0; i < shared_.size(); ++i) {
        dshared[i] += received_[i];
      }
      moves.push_back({k, nullptr});
    } else {
      // A straggler's stale delta, finally off the wire.  The invariant is
      // linear in the delta, so incorporating it late is exact; only the
      // descent quality pays for the staleness (PASSCoDe).
      const auto& pending = *worker.pending;
      charge_wire(pending.wire_bytes);
      for (std::size_t i = 0; i < shared_.size(); ++i) {
        dshared[i] += pending.dshared[i];
      }
      moves.push_back({k, &pending.dweights});
    }
  }
  const int contributors = static_cast<int>(moves.size());
  last_contributors_ = contributors;
  if (tracing) {
    obs::trace_complete("dist/reduce", reduce_begin_us,
                        obs::trace_now_us() - reduce_begin_us, kMasterTrack,
                        contributors);
  }

  // ---- γ, rescaled to the workers that actually delivered (degraded-mode
  // aggregation), then the broadcast leg: the master applies it and the
  // contributing workers rescale by the same γ.  Excluded workers were
  // rolled back to their epoch start, so they contribute (exactly) nothing.
  last_gamma_ =
      choose_gamma(dshared, moves, contributors > 0 ? 1.0 / contributors : 0.0);
  const double bcast_begin_us = tracing ? obs::trace_now_us() : 0.0;
  if (contributors > 0) {
    apply_step(dshared, moves, last_gamma_);
    for (const auto& move : moves) {
      if (move.late_dweights == nullptr) continue;
      auto& worker = workers_[move.worker];
      worker.pending.reset();
      worker.status = WorkerStatus::kActive;
      record_event(static_cast<int>(move.worker),
                   core::ClusterEventKind::kLateDelta);
    }
  }

  if (tracing) {
    // Open one model arrow per live worker inside the broadcast span; each
    // closes at the start of that worker's next solve.
    for (std::size_t k = 0; k < num_workers; ++k) {
      if (workers_[k].status == WorkerStatus::kEvicted) continue;
      obs::trace_flow_begin(
          "flow/model",
          model_flow_id(kMasterTrack, epoch, static_cast<int>(k)),
          kMasterTrack);
    }
    obs::trace_complete("dist/broadcast", bcast_begin_us,
                        obs::trace_now_us() - bcast_begin_us, kMasterTrack,
                        epoch);
  }

  // ---- Simulated time accounting (paper-scale dimensions). ----
  const auto shared_elems = static_cast<double>(global_workload_.shared_dim);
  // Host passes scale with the largest local weight vector: the workers
  // run in parallel, so the slowest (largest) one gates the round.
  double host_coords = 0.0;
  for (std::size_t k = 0; k < num_workers; ++k) {
    host_coords = std::max(host_coords, host_coordinates(k));
  }

  // Attribution (DESIGN.md §15).  The master waits for the slowest delta it
  // aggregated — or, when a straggler blew the deadline, for the full grace
  // window before giving up on it; that wait splits into the critical
  // worker's nominal compute plus straggler wait.
  const double waited =
      any_deadline_miss
          ? std::max(compute_max, straggler_grace_ * healthy_max)
          : compute_max;
  obs::RoundAttribution attr;
  attr.compute_seconds = crit_compute;
  attr.straggler_wait_seconds = waited - crit_compute;
  // Host arithmetic: forming Δw and applying γΔw (2 passes over the shared
  // vector on each host, in parallel across workers => counted once), plus
  // forming / rescaling the local weight deltas (3 passes over the local
  // coordinates).
  attr.host_seconds =
      config_.local_solver.cpu_cost.seconds_per_vector_element *
      (3.0 * shared_elems + 3.0 * host_coords);
  if (gpu_local_) {
    // Shared vector off the device after the local epoch and the new one
    // back on, through pinned buffers (Section V.A).
    gpusim::PcieLink pcie;
    attr.pcie_seconds =
        pcie.transfer_seconds(model_bytes_, /*pinned=*/true) +
        pcie.transfer_seconds(model_bytes_, /*pinned=*/true);
  }
  if (comm_overlap_ && fresh_arrivals.size() > 1) {
    // Comm/compute overlap: the master ingests each delta as it lands, so
    // only the reduce time still exposed past the compute wait is charged
    // — by construction never more than the tree reduce, and exactly the
    // quantity the placement cost model prices.
    const double reduce_done = placement::overlapped_reduce_seconds(
        fresh_arrivals, delta_leg_bytes_, config_.network);
    const double exposed = std::max(0.0, reduce_done - waited);
    attr.network_seconds =
        exposed +
        config_.network.broadcast_seconds(model_bytes_, config_.num_workers);
  } else {
    attr.network_seconds = net_round;
  }
  if (config_.aggregation == AggregationMode::kAdaptive) {
    // A few scalars ride along with the reduce/broadcast: one extra
    // latency-bound message each way.
    attr.network_seconds += config_.network.reduce_seconds(
                                4 * sizeof(double), config_.num_workers) +
                            config_.network.broadcast_seconds(
                                sizeof(double), config_.num_workers);
  }
  // The round's simulated time keeps the historical summation order:
  // (waited + host) + pcie + network.
  const double round_seconds = waited + attr.host_seconds +
                               attr.pcie_seconds + attr.network_seconds;
  close_round(attr, round_seconds);

  core::EpochReport report;
  report.coordinate_updates = updates;
  report.sim_seconds = round_seconds;
  report.wall_seconds = timer.seconds();
  return report;
}

WorkerStatus DistributedSolver::worker_status(int worker) const {
  return workers_.at(static_cast<std::size_t>(worker)).status;
}

void DistributedSolver::restore(const core::SavedModel& saved) {
  validate_checkpoint(saved);
  scatter_checkpoint(saved);
  const int skip =
      static_cast<int>(saved.epoch) * config_.local_epochs_per_round;
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    // Realign the permutation stream: every worker consumes exactly
    // local_epochs_per_round shuffles per outer epoch no matter what
    // happened to it, so position == epoch is an invariant and a resumed
    // fault-free run replays the original bit-for-bit.
    core(k).solver->skip_epoch_randomness(skip);
    // A resume is a cluster-wide cold restart: everyone comes back.
    workers_[k] = Worker{};
  }
  round_ = static_cast<int>(saved.epoch);
}

void DistributedSolver::write_checkpoint_file(const std::string& path) {
  core::write_model_file(path, checkpoint());
}

core::ConvergenceTrace run_distributed(DistributedSolver& solver,
                                       const core::RunOptions& options,
                                       const CheckpointConfig& ckpt) {
  return solver.run(options, ckpt);
}

}  // namespace tpa::cluster
