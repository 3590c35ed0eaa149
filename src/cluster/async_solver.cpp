#include "cluster/async_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "gpusim/device.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "sparse/io_binary.hpp"
#include "util/timer.hpp"

namespace tpa::cluster {
namespace {

constexpr char kAsyncStateMagic[4] = {'T', 'P', 'A', 'A'};
constexpr std::uint32_t kAsyncStateVersion = 1;

struct AsyncStateHeader {
  std::uint32_t format_version = kAsyncStateVersion;
  std::uint32_t num_workers = 0;
  std::uint64_t round = 0;
  std::uint64_t version = 0;
  std::uint64_t seed = 0;
};

// Worker records go to disk as-is: four fields, no padding.
static_assert(sizeof(AsyncCheckpointState::WorkerState) == 24);

}  // namespace

const char* staleness_policy_name(StalenessPolicy policy) {
  return policy == StalenessPolicy::kDamp ? "damp" : "reject";
}

StalenessPolicy parse_staleness_policy(const std::string& name) {
  if (name == "damp") return StalenessPolicy::kDamp;
  if (name == "reject") return StalenessPolicy::kReject;
  throw std::invalid_argument("unknown staleness policy '" + name +
                              "' (damp | reject)");
}

const char* async_worker_status_name(AsyncWorkerStatus status) {
  switch (status) {
    case AsyncWorkerStatus::kComputing:
      return "computing";
    case AsyncWorkerStatus::kBackoff:
      return "backoff";
    case AsyncWorkerStatus::kDetached:
      return "detached";
  }
  return "?";
}

std::string async_state_path(const std::string& model_path) {
  return model_path + ".async";
}

void write_async_state_file(const std::string& path,
                            const AsyncCheckpointState& state) {
  sparse::commit_file(path, "async state", [&](std::ostream& out) {
    sparse::CheckedWriter writer(out, "async state");
    writer.write(kAsyncStateMagic, sizeof(kAsyncStateMagic));
    AsyncStateHeader header;
    header.num_workers = static_cast<std::uint32_t>(state.workers.size());
    header.round = state.round;
    header.version = state.version;
    header.seed = state.seed;
    writer.write(&header, sizeof(header));
    writer.write(state.workers.data(),
                 state.workers.size() *
                     sizeof(AsyncCheckpointState::WorkerState));
    writer.write_digest();
  });
}

AsyncCheckpointState read_async_state_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("async state: cannot open " + path);
  }
  // The magic sits inside the digest, so the sidecar keeps its own reader
  // rather than the shared frame; it ends the same way, in finish().
  sparse::CheckedReader reader(in, "async state " + path);
  char magic[4];
  reader.read(magic, sizeof(magic));
  if (std::memcmp(magic, kAsyncStateMagic, sizeof(kAsyncStateMagic)) != 0) {
    throw sparse::FormatError("async state: bad magic in " + path);
  }
  AsyncStateHeader header;
  reader.read(&header, sizeof(header));
  if (header.format_version != kAsyncStateVersion) {
    throw sparse::FormatError("async state: unsupported format version " +
                              std::to_string(header.format_version) + " in " +
                              path);
  }
  AsyncCheckpointState state;
  state.round = header.round;
  state.version = header.version;
  state.seed = header.seed;
  state.workers =
      reader.read_array<AsyncCheckpointState::WorkerState>(header.num_workers);
  reader.finish();
  return state;
}

AsyncSolver::AsyncSolver(const data::Dataset& global,
                         const AsyncConfig& config)
    : ClusterSolver(global, config, "AsyncSolver", kAsyncMasterTrack, "async",
                    /*comm_overlap=*/false),
      staleness_window_(config.staleness_window),
      staleness_policy_(config.staleness_policy),
      membership_(config.membership),
      workers_(static_cast<std::size_t>(config.num_workers)) {
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
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    // Calibrate the nominal per-epoch compute time from a throwaway probe
    // solver on the same shard: the timing models are state-independent, so
    // this one number makes the whole event timeline a pure function of
    // (config, seeds) — the worker's real permutation stream stays untouched
    // and the numerics never feed back into the clock.
    auto probe = core::make_solver(*core(k).problem, local_config(k));
    workers_[k].compute_seconds = probe->run_epoch().sim_seconds;
  }
}

int AsyncSolver::live_workers() const {
  int live = 0;
  for (const auto& worker : workers_) {
    if (worker.status != AsyncWorkerStatus::kDetached) ++live;
  }
  return live;
}

AsyncWorkerStatus AsyncSolver::worker_status(int worker) const {
  return workers_.at(static_cast<std::size_t>(worker)).status;
}

int AsyncSolver::effective_staleness_window() const {
  return staleness_window_ > 0
             ? staleness_window_
             : core::cluster_staleness_window(live_workers());
}

std::span<const float> AsyncSolver::committed_weights(std::size_t k) const {
  return workers_[k].busy ? core(k).weights_start
                          : core(k).solver->state().weights;
}

AsyncSolver::CycleCost AsyncSolver::cycle_cost(std::size_t k) const {
  const auto& worker = workers_[k];
  CycleCost cost;
  // Point-to-point pull + push instead of the sync tree: the master link is
  // modelled at the same granularity as the reduce/broadcast trees (no
  // master-side serialization), which favours neither arm — both charge one
  // latency + bytes/bw term per hop.
  cost.network = config_.network.point_to_point_seconds(model_bytes_) +
                 config_.network.point_to_point_seconds(delta_leg_bytes_);
  if (config_.aggregation == AggregationMode::kAdaptive) {
    cost.network +=
        config_.network.point_to_point_seconds(5 * sizeof(double));
  }
  const auto shared_elems = static_cast<double>(global_workload_.shared_dim);
  // Forming Δw and applying γθΔw on the master, plus forming / rescaling the
  // local weight delta — the same vector arithmetic the sync driver charges.
  cost.host = config_.local_solver.cpu_cost.seconds_per_vector_element *
              (2.0 * shared_elems + 2.0 * host_coordinates(k));
  if (config_.fleet.empty() ? gpu_local_ : config_.fleet[k].is_gpu()) {
    gpusim::PcieLink link;
    cost.pcie = 2.0 * link.transfer_seconds(model_bytes_, /*pinned=*/true);
  }
  cost.compute = config_.local_epochs_per_round * worker.compute_seconds;
  if (worker.fault.kind == FaultKind::kStall) {
    const double slowdown = std::max(1.0, worker.fault.stall_factor) - 1.0;
    cost.stall =
        slowdown * config_.local_epochs_per_round * worker.compute_seconds;
  }
  return cost;
}

void AsyncSolver::handle_crash(Worker& worker, int index) {
  if (count_crash(index, worker.crash_count)) {
    worker.status = AsyncWorkerStatus::kDetached;
  } else {
    worker.status = AsyncWorkerStatus::kBackoff;
    worker.restart_pending = true;
    worker.event_at =
        now_ + std::ldexp(cycle_cost(index).nominal(), worker.crash_count - 1);
  }
}

void AsyncSolver::discard_in_flight(std::size_t index) {
  auto& worker = workers_[index];
  if (!worker.busy) return;
  // The cycle's permutation draws stay consumed (draws_consumed already
  // counts them), so the stream position survives the discard.
  core(index).solver->mutable_state().weights = core(index).weights_start;
  worker.busy = false;
}

void AsyncSolver::apply_membership(int round) {
  for (const auto& event : membership_) {
    if (event.round != round) continue;
    auto& worker = workers_[event.worker];
    if (event.kind == MembershipEvent::Kind::kLeave) {
      if (worker.status == AsyncWorkerStatus::kDetached) continue;
      discard_in_flight(event.worker);
      worker.restart_pending = false;
      worker.status = AsyncWorkerStatus::kDetached;
      record_event(event.worker, core::ClusterEventKind::kLeave);
    } else {
      if (worker.status != AsyncWorkerStatus::kDetached) continue;
      // The joiner adopts the frozen partition: its committed weights are
      // already the master's view of those coordinates, and its first pull
      // cold-starts it from the master's current shared vector.
      worker.status = AsyncWorkerStatus::kComputing;
      worker.crash_count = 0;
      worker.restart_pending = false;
      record_event(event.worker, core::ClusterEventKind::kJoin);
    }
  }
}

void AsyncSolver::schedule_cycle(int index) {
  auto& worker = workers_[index];
  auto& local = core(index);
  const int passes = config_.local_epochs_per_round;
  // One fault draw per (round, worker), so a crash cannot re-fire on the
  // restart path within the same round and spiral straight to eviction.
  if (worker.fault_round != round_) {
    worker.round_fault = injector_.query(round_, index);
    worker.fault_round = round_;
    worker.crashed_this_round = false;
  }
  FaultEvent fault = worker.round_fault;
  if (fault.kind == FaultKind::kCrash && worker.crashed_this_round) {
    fault.kind = FaultKind::kNone;
  }

  if (fault.kind == FaultKind::kCrash) {
    // The crash costs the whole local epoch's randomness, like the sync
    // driver: stream positions advance whether or not the work survives.
    worker.crashed_this_round = true;
    local.solver->skip_epoch_randomness(passes);
    worker.draws_consumed += static_cast<std::uint64_t>(passes);
    handle_crash(worker, index);
    return;
  }

  worker.busy = true;
  worker.fault = fault;
  worker.pulled_version = version_;
  worker.pulled_shared = shared_;
  // Pull arrow: the master publishes its current vector to this worker.
  const std::uint64_t pull_flow = ++flow_seq_;
  obs::trace_flow_begin("flow/pull", pull_flow, kAsyncMasterTrack);
  {
    obs::TraceSpan span("async/local_solve",
                        worker_track(kAsyncMasterTrack, index), round_);
    obs::trace_flow_end("flow/pull", pull_flow,
                        worker_track(kAsyncMasterTrack, index));
    // The clock uses the calibrated compute_seconds, never the run's own.
    run_local_epochs(index);
    // Push arrow: opened at solve end, closed when the master absorbs this
    // cycle in complete_cycle.
    worker.push_flow_id = ++flow_seq_;
    obs::trace_flow_begin("flow/push", worker.push_flow_id,
                          worker_track(kAsyncMasterTrack, index));
  }
  worker.draws_consumed += static_cast<std::uint64_t>(passes);
  // nominal() + stall reproduces the legacy sum order bit-for-bit, so the
  // deterministic event timeline (and checkpoint replay) is unchanged.
  worker.event_at = now_ + cycle_cost(index).total();
}

void AsyncSolver::complete_cycle(int index, double segment_seconds) {
  const auto k = static_cast<std::size_t>(index);
  auto& worker = workers_[k];
  auto& local = core(k);
  worker.busy = false;
  auto& state = local.solver->mutable_state();
  ++pushes_this_round_;
  obs::metrics().counter("cluster.async.pushes").add();
  obs::trace_flow_end("flow/push", worker.push_flow_id, kAsyncMasterTrack);
  const std::uint64_t staleness = version_ - worker.pulled_version;
  obs::metrics()
      .histogram("cluster.async.staleness")
      .record(static_cast<double>(staleness));

  // Attribution: charge `seconds` of master critical path to this cycle's
  // cost terms, pro rata (the stall share is time spent waiting on an
  // injected straggler, not useful compute).
  const CycleCost cost = cycle_cost(k);
  const auto charge_split = [&](double seconds) {
    const double total = cost.total();
    if (total <= 0.0 || seconds <= 0.0) return;
    const double scale = seconds / total;
    round_attr_.compute_seconds += scale * cost.compute;
    round_attr_.host_seconds += scale * cost.host;
    round_attr_.pcie_seconds += scale * cost.pcie;
    round_attr_.network_seconds += scale * cost.network;
    round_attr_.straggler_wait_seconds += scale * cost.stall;
  };

  const auto rollback = [&] { state.weights = local.weights_start; };

  if (worker.fault.kind == FaultKind::kDropDelta) {
    charge_split(segment_seconds);
    rollback();
    record_event(index, core::ClusterEventKind::kDeltaDropped);
    return;
  }

  const Transit transit =
      send_delta(state.shared, worker.pulled_shared,
                 worker.fault.kind == FaultKind::kCorruptDelta, received_);
  charge_wire(transit.wire_bytes);
  if (!transit.verified) {
    charge_split(segment_seconds);
    rollback();
    record_event(index, core::ClusterEventKind::kDeltaCorrupted);
    return;
  }

  // ---- Bounded-staleness rule: versions elapsed since this worker's pull,
  // against the (possibly adaptive) window.
  const int window = effective_staleness_window();
  double theta = 1.0;
  if (staleness > static_cast<std::uint64_t>(window)) {
    if (staleness_policy_ == StalenessPolicy::kReject) {
      // The whole cycle was wasted: the master learned nothing from it.
      round_attr_.stale_overhead_seconds += segment_seconds;
      rollback();
      record_event(index, core::ClusterEventKind::kStaleRejected);
      return;
    }
    theta = core::cluster_staleness_damping(staleness, window);
    record_event(index, core::ClusterEventKind::kStaleDamped);
  }
  // A damped delta only delivered a θ fraction of its step: the damped-away
  // share of this segment is staleness overhead, the rest splits normally.
  round_attr_.stale_overhead_seconds += (1.0 - theta) * segment_seconds;
  charge_split(theta * segment_seconds);

  // ---- The master step on this one delta: γ rescaled to live members
  // (adaptive mode line-searches against the master's *current* state — the
  // exact optimum along the delta direction, so even a stale direction is a
  // monotone step before damping), then shared vector and the worker's
  // committed weights move by the same γθ.
  const WorkerMove move[] = {{k, nullptr}};
  last_gamma_ =
      choose_gamma(received_, move, 1.0 / std::max(1, live_workers()));
  const double apply_begin_us =
      obs::trace_enabled() ? obs::trace_now_us() : 0.0;
  apply_step(received_, move, last_gamma_ * theta);
  ++version_;
  applied_updates_ += state.weights.size();
  obs::metrics().counter("cluster.async.applied").add();
  if (obs::trace_enabled()) {
    obs::trace_complete("async/apply", apply_begin_us,
                        obs::trace_now_us() - apply_begin_us,
                        kAsyncMasterTrack, static_cast<std::int64_t>(version_));
  }
}

core::EpochReport AsyncSolver::run_epoch() {
  const util::WallTimer timer;
  ++round_;
  obs::TraceSpan round_span("async/round", kAsyncMasterTrack, round_);
  obs::metrics().counter("cluster.async.rounds").add();
  const double round_start = now_;
  pushes_this_round_ = 0;
  applied_updates_ = 0;

  apply_membership(round_);

  // Round start: every idle computing worker begins a cycle.  Workers whose
  // previous cycle straddles the boundary keep flying — that is the point of
  // no-barrier rounds — and backoff workers keep their restart timers.
  for (int k = 0; k < config_.num_workers; ++k) {
    const auto& worker = workers_[k];
    if (worker.status == AsyncWorkerStatus::kComputing && !worker.busy &&
        !worker.restart_pending) {
      schedule_cycle(k);
    }
  }

  // Event loop: pop the earliest pending event (ties break by slot) until
  // the master has absorbed one push attempt per live member.  Every push —
  // applied, damped, rejected, dropped or corrupted — counts as absorbed, so
  // a round makes progress even under total delta loss.
  while (true) {
    const int live = live_workers();
    if (live == 0 || pushes_this_round_ >= static_cast<std::uint64_t>(live)) {
      break;
    }
    int next = -1;
    for (int k = 0; k < config_.num_workers; ++k) {
      const auto& worker = workers_[k];
      if (!worker.busy && !worker.restart_pending) continue;
      if (next < 0 || worker.event_at < workers_[next].event_at) {
        next = k;
      }
    }
    if (next < 0) break;  // no events pending: nothing can push this round
    auto& worker = workers_[next];
    // Master-critical-path segment consumed by this event.  Segments
    // telescope over the round, so the attribution components sum to the
    // round's sim time exactly.
    const double previous_now = now_;
    now_ = std::max(now_, worker.event_at);
    const double segment = now_ - previous_now;
    if (worker.restart_pending) {
      // Time the master spent with this slot dark, waiting out a backoff.
      round_attr_.straggler_wait_seconds += segment;
      worker.restart_pending = false;
      worker.status = AsyncWorkerStatus::kComputing;
      record_event(next, core::ClusterEventKind::kRestart);
      schedule_cycle(next);
      continue;
    }
    complete_cycle(next, segment);
    if (worker.status == AsyncWorkerStatus::kComputing && !worker.busy &&
        !worker.restart_pending) {
      schedule_cycle(next);
    }
  }

  last_contributors_ = live_workers();
  obs::metrics().gauge("cluster.async.version").set(
      static_cast<double>(version_));

  const double round_sim = now_ - round_start;
  close_round(round_attr_, round_sim);
  round_attr_ = obs::RoundAttribution{};

  core::EpochReport report;
  report.coordinate_updates = applied_updates_;
  report.sim_seconds = round_sim;
  report.wall_seconds = timer.seconds();
  return report;
}

core::SavedModel AsyncSolver::checkpoint() {
  // Rendezvous: drop in-flight cycles (their draws stay consumed) and
  // re-zero the simulated clock, shifting pending restart timers with it.
  // The post-rendezvous state is then numerically identical to what
  // restore() rebuilds — including the absolute event times the timeline
  // comparisons see, so resumed and straight-through runs cannot diverge on
  // floating-point tie-breaks.
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    discard_in_flight(k);
    if (workers_[k].restart_pending) workers_[k].event_at -= now_;
  }
  now_ = 0.0;
  return saved_model();
}

AsyncCheckpointState AsyncSolver::checkpoint_state() const {
  AsyncCheckpointState state;
  state.round = static_cast<std::uint64_t>(round_);
  state.version = version_;
  state.seed = config_.seed;
  state.workers.reserve(workers_.size());
  for (const auto& worker : workers_) {
    AsyncCheckpointState::WorkerState ws;
    ws.draws_consumed = worker.draws_consumed;
    ws.status = static_cast<std::uint32_t>(worker.status);
    ws.crash_count = static_cast<std::uint32_t>(worker.crash_count);
    ws.restart_at = worker.restart_pending ? worker.event_at : 0.0;
    state.workers.push_back(ws);
  }
  return state;
}

void AsyncSolver::write_checkpoint_file(const std::string& path) {
  core::write_model_file(path, checkpoint());
  write_async_state_file(async_state_path(path), checkpoint_state());
}

void AsyncSolver::restore(const core::SavedModel& saved,
                          const AsyncCheckpointState& state) {
  validate_checkpoint(saved);
  if (state.workers.size() != workers_.size()) {
    throw std::invalid_argument(
        "AsyncSolver::restore: sidecar worker count " +
        std::to_string(state.workers.size()) + " != configured " +
        std::to_string(workers_.size()));
  }
  if (state.seed != config_.seed) {
    throw std::invalid_argument(
        "AsyncSolver::restore: sidecar seed mismatch (the partition and "
        "fault schedule would not replay)");
  }
  if (static_cast<std::uint64_t>(saved.epoch) != state.round) {
    throw std::invalid_argument(
        "AsyncSolver::restore: model epoch " + std::to_string(saved.epoch) +
        " != sidecar round " + std::to_string(state.round) +
        " (mismatched checkpoint pair)");
  }

  scatter_checkpoint(saved);
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    auto& worker = workers_[k];
    const auto& ws = state.workers[k];
    core(k).solver->skip_epoch_randomness(
        static_cast<int>(ws.draws_consumed));
    worker.draws_consumed = ws.draws_consumed;
    worker.status = static_cast<AsyncWorkerStatus>(ws.status);
    worker.crash_count = static_cast<int>(ws.crash_count);
    worker.busy = false;
    worker.restart_pending = worker.status == AsyncWorkerStatus::kBackoff;
    worker.event_at = ws.restart_at;
    worker.fault_round = -1;
  }
  round_ = static_cast<int>(state.round);
  version_ = state.version;
  now_ = 0.0;
}

void AsyncSolver::restore_files(const std::string& path) {
  restore(core::read_model_file(path),
          read_async_state_file(async_state_path(path)));
}

core::ConvergenceTrace run_async(AsyncSolver& solver,
                                 const core::RunOptions& options,
                                 const CheckpointConfig& ckpt) {
  return solver.run(options, ckpt);
}

}  // namespace tpa::cluster
