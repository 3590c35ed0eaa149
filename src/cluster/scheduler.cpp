// The one cluster scheduler (cluster_solver.hpp): the round, the event
// timeline, the barrier, the fault layer, elastic membership and the
// checkpoint protocol with its .async sidecar.
#include "cluster/cluster_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/cost_model.hpp"
#include "gpusim/device.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "sparse/io_binary.hpp"
#include "util/timer.hpp"

namespace tpa::cluster {
namespace {

constexpr char kAsyncStateMagic[4] = {'T', 'P', 'A', 'A'};
constexpr std::uint32_t kNoBarrierStateVersion = 1;
constexpr std::uint32_t kBarrierStateVersion = 2;

struct AsyncStateHeader {
  std::uint32_t format_version = kNoBarrierStateVersion;
  std::uint32_t num_workers = 0;
  std::uint64_t round = 0;
  std::uint64_t version = 0;
  std::uint64_t seed = 0;
};

// Worker records go to disk as-is: four fields, no padding.
static_assert(sizeof(AsyncCheckpointState::WorkerState) == 24);

/// A barrier cycle's push offset from its round start: the local epochs'
/// own sim time, inflated by an injected stall.
double push_offset(double run_seconds, const FaultEvent& fault) {
  return fault.kind == FaultKind::kStall
             ? run_seconds * std::max(1.0, fault.stall_factor)
             : run_seconds;
}

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
    header.format_version =
        state.barrier ? kBarrierStateVersion : kNoBarrierStateVersion;
    header.num_workers = static_cast<std::uint32_t>(state.workers.size());
    header.round = state.round;
    header.version = state.version;
    header.seed = state.seed;
    writer.write(&header, sizeof(header));
    writer.write(state.workers.data(),
                 state.workers.size() *
                     sizeof(AsyncCheckpointState::WorkerState));
    if (state.barrier) {
      // Version 2: the clock, the cycle count, then per cycle its four
      // scalars and three length-prefixed float arrays.
      const std::uint64_t cycles = state.in_flight.size();
      writer.write(&state.clock, sizeof(state.clock));
      writer.write(&cycles, sizeof(cycles));
      for (const auto& cycle : state.in_flight) {
        writer.write(&cycle.worker, sizeof(cycle.worker));
        writer.write(&cycle.pulled_round, sizeof(cycle.pulled_round));
        writer.write(&cycle.pulled_version, sizeof(cycle.pulled_version));
        writer.write(&cycle.push_at, sizeof(cycle.push_at));
        for (const auto* values :
             {&cycle.weights, &cycle.shared, &cycle.pulled_shared}) {
          const std::uint64_t count = values->size();
          writer.write(&count, sizeof(count));
          writer.write(values->data(), count * sizeof(float));
        }
      }
    }
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
  if (header.format_version != kNoBarrierStateVersion &&
      header.format_version != kBarrierStateVersion) {
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
  state.barrier = header.format_version == kBarrierStateVersion;
  if (state.barrier) {
    std::uint64_t cycles = 0;
    reader.read(&state.clock, sizeof(state.clock));
    reader.read(&cycles, sizeof(cycles));
    if (cycles > header.num_workers) {
      throw sparse::FormatError("async state: " + std::to_string(cycles) +
                                " cycles in flight for " +
                                std::to_string(header.num_workers) +
                                " workers in " + path);
    }
    state.in_flight.resize(cycles);
    for (auto& cycle : state.in_flight) {
      reader.read(&cycle.worker, sizeof(cycle.worker));
      reader.read(&cycle.pulled_round, sizeof(cycle.pulled_round));
      reader.read(&cycle.pulled_version, sizeof(cycle.pulled_version));
      reader.read(&cycle.push_at, sizeof(cycle.push_at));
      for (auto* values :
           {&cycle.weights, &cycle.shared, &cycle.pulled_shared}) {
        std::uint64_t count = 0;
        reader.read(&count, sizeof(count));
        *values = reader.read_array<float>(count);
      }
    }
  }
  reader.finish();
  return state;
}

std::span<const float> ClusterSolver::committed_weights(std::size_t k) const {
  return workers_[k].busy ? cores_[k]->weights_start
                          : cores_[k]->solver->state().weights;
}

ClusterSolver::CycleCost ClusterSolver::cycle_cost(std::size_t k) const {
  const auto& worker = workers_[k];
  CycleCost cost;
  // Point-to-point pull + push instead of the barrier's tree: the master
  // link is modelled at the same granularity as the reduce/broadcast trees
  // (no master-side serialization), which favours neither schedule — both
  // charge one latency + bytes/bw term per hop.
  cost.network = config_.network.point_to_point_seconds(model_bytes_) +
                 config_.network.point_to_point_seconds(delta_leg_bytes_);
  if (config_.aggregation == AggregationMode::kAdaptive) {
    cost.network +=
        config_.network.point_to_point_seconds(5 * sizeof(double));
  }
  const auto shared_elems = static_cast<double>(global_workload_.shared_dim);
  // Forming Δw and applying γθΔw on the master, plus forming / rescaling the
  // local weight delta — the same vector arithmetic a barrier round charges.
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

int ClusterSolver::live_workers() const {
  int live = 0;
  for (const auto& worker : workers_) {
    if (worker.status != AsyncWorkerStatus::kDetached) ++live;
  }
  return live;
}

AsyncWorkerStatus ClusterSolver::worker_status(int worker) const {
  return workers_.at(static_cast<std::size_t>(worker)).status;
}

int ClusterSolver::effective_staleness_window() const {
  return staleness_window_ > 0
             ? staleness_window_
             : core::cluster_staleness_window(live_workers());
}

void ClusterSolver::apply_membership(int round) {
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

void ClusterSolver::handle_crash(Worker& worker, int index) {
  // The in-progress cycle is lost; the worker's committed weights survive
  // because its next pull re-seeds it from the master's state.  Eviction
  // flows into the same detached state a scripted leave produces, so a
  // later join can revive the slot.
  ++worker.crash_count;
  record_event(index, core::ClusterEventKind::kCrash);
  if (worker.crash_count > config_.max_restarts) {
    record_event(index, core::ClusterEventKind::kEvict);
    worker.status = AsyncWorkerStatus::kDetached;
  } else {
    worker.status = AsyncWorkerStatus::kBackoff;
    worker.restart_pending = true;
    worker.event_at =
        now_ + std::ldexp(cycle_cost(index).nominal(), worker.crash_count - 1);
  }
}

void ClusterSolver::restart(int index) {
  auto& worker = workers_[index];
  worker.restart_pending = false;
  worker.status = AsyncWorkerStatus::kComputing;
  record_event(index, core::ClusterEventKind::kRestart);
}

void ClusterSolver::discard_in_flight(std::size_t index) {
  auto& worker = workers_[index];
  if (!worker.busy) return;
  // The cycle's permutation draws stay consumed (draws_consumed already
  // counts them), so the stream position survives the discard.
  auto& local = core(index);
  local.epochs.join();
  local.solver->mutable_state().weights = local.weights_start;
  worker.busy = false;
}

FaultEvent ClusterSolver::round_fault(int index) {
  auto& worker = workers_[index];
  if (worker.fault_round != round_) {
    worker.round_fault = injector_.query(round_, index);
    worker.fault_round = round_;
    worker.crashed_this_round = false;
  }
  FaultEvent fault = worker.round_fault;
  if (fault.kind == FaultKind::kCrash) {
    if (worker.crashed_this_round) fault.kind = FaultKind::kNone;
    worker.crashed_this_round = true;
  }
  return fault;
}

void ClusterSolver::schedule_cycle(int index) {
  auto& worker = workers_[index];
  auto& local = core(index);
  const int passes = config_.local_epochs_per_round;
  const FaultEvent fault = round_fault(index);

  if (fault.kind == FaultKind::kCrash) {
    // The crash costs the whole local epoch's randomness: stream positions
    // advance whether or not the work survives.
    local.solver->skip_epoch_randomness(passes);
    worker.draws_consumed += static_cast<std::uint64_t>(passes);
    handle_crash(worker, index);
    return;
  }

  worker.busy = true;
  worker.late = false;
  worker.fault = fault;
  worker.pulled_version = version_;
  worker.pulled_shared = shared_;
  worker.pulled_round = round_;
  // The worker starts from the master's shared vector and its committed
  // weights; its local copy then diverges as it applies local updates.
  auto& state = local.solver->mutable_state();
  state.shared.assign(shared_.begin(), shared_.end());
  local.weights_start = state.weights;
  // Flow ids carry the master track: barrier and no-barrier arrows in one
  // trace never pair up.
  const auto next_flow_id = [&] {
    return (static_cast<std::uint64_t>(master_track_) << 40) | ++flow_seq_;
  };
  // Model arrow: the master publishes its current vector to this worker.
  // Delta arrow: opened at solve end, closed when the master takes the push
  // off the wire.
  const std::uint64_t model_flow = next_flow_id();
  worker.push_flow_id = next_flow_id();
  obs::trace_flow_begin("flow/model", model_flow, master_track_);
  worker.draws_consumed += static_cast<std::uint64_t>(passes);
  // A no-barrier push lands after the calibrated cycle cost, whose
  // nominal() + stall reproduces the legacy sum order bit-for-bit.
  if (!barrier_) worker.event_at = now_ + cycle_cost(index).total();

  // The local epochs read and write only this worker's core, from inputs
  // fixed above, so they give the same bits on any thread; the task holds
  // them until a join, which comes before anything reads the core again.
  auto epochs = [&local, passes, model_flow, push_flow = worker.push_flow_id,
                 name = barrier_ ? "dist/local_solve" : "async/local_solve",
                 track = worker_track(master_track_, index), round = round_] {
    obs::TraceSpan span(name, track, round);
    obs::trace_flow_end("flow/model", model_flow, track);
    local.run_seconds = 0.0;
    for (int pass = 0; pass < passes; ++pass) {
      local.run_seconds += local.solver->run_epoch().sim_seconds;
    }
    obs::trace_flow_begin("flow/delta", push_flow, track);
  };
  if (pool_) {
    local.epochs.start(*pool_, std::move(epochs));
  } else {
    epochs();
  }
}

bool ClusterSolver::receive_push(int index) {
  auto& worker = workers_[index];
  auto& local = core(index);
  local.epochs.join();
  worker.busy = false;
  ++pushes_this_round_;
  obs::metrics().counter("cluster.async.pushes").add();
  obs::trace_flow_end("flow/delta", worker.push_flow_id, master_track_);
  obs::metrics()
      .histogram("cluster.async.staleness")
      .record(static_cast<double>(version_ - worker.pulled_version));
  auto& state = local.solver->mutable_state();
  core::ClusterEventKind lost = core::ClusterEventKind::kDeltaDropped;
  if (worker.fault.kind != FaultKind::kDropDelta) {
    if (send_delta(state.shared, worker.pulled_shared,
                   worker.fault.kind == FaultKind::kCorruptDelta, received_)) {
      return true;
    }
    lost = core::ClusterEventKind::kDeltaCorrupted;
  }
  state.weights = local.weights_start;
  record_event(index, lost);
  return false;
}

core::EpochReport ClusterSolver::run_epoch() {
  const util::WallTimer timer;
  ++round_;
  obs::TraceSpan round_span(barrier_ ? "dist/epoch" : "async/round",
                            master_track_, round_);
  obs::metrics()
      .counter(barrier_ ? "cluster.epochs" : "cluster.async.rounds")
      .add();
  const double round_start = now_;
  pushes_this_round_ = 0;
  round_updates_ = 0;

  apply_membership(round_);

  // Round start: every idle member pulls and begins a cycle.  Cycles in
  // flight keep flying — a no-barrier cycle regularly straddles the
  // boundary, a barrier straggler lands in a later round — and backoff
  // workers keep their restart timers.  A barrier straggler still draws
  // each round's fault while its late delta flies, and a crash loses that
  // delta.  A barrier round honours the restart timers that have run out
  // here (a worker rejoins at a round start, from that round's broadcast);
  // the no-barrier timeline honours them as events.
  for (int k = 0; k < config_.num_workers; ++k) {
    auto& worker = workers_[k];
    if (barrier_ && worker.busy &&
        round_fault(k).kind == FaultKind::kCrash) {
      discard_in_flight(k);
      handle_crash(worker, k);
    }
    if (barrier_ && worker.restart_pending && worker.event_at <= now_) {
      restart(k);
    }
    if (worker.status == AsyncWorkerStatus::kComputing && !worker.busy &&
        !worker.restart_pending) {
      schedule_cycle(k);
    }
  }

  double round_sim = 0.0;
  if (barrier_) {
    round_sim = close_barrier_round(round_start, wait_for_pushes());
    now_ = round_start + round_sim;
  } else {
    drain_pushes();
    last_contributors_ = live_workers();
    round_sim = now_ - round_start;
    close_round(round_attr_, round_sim);
    round_attr_ = obs::RoundAttribution{};
  }
  obs::metrics().gauge("cluster.async.version").set(
      static_cast<double>(version_));

  core::EpochReport report;
  report.coordinate_updates = round_updates_;
  report.sim_seconds = round_sim;
  report.wall_seconds = timer.seconds();
  return report;
}

ClusterSolver::BarrierWait ClusterSolver::wait_for_pushes() {
  // The straggler deadline, from the timing breakdown: the master waits
  // grace x (slowest healthy compute + network round) for the members it
  // scheduled this round before aggregating without the laggards.
  const bool tracing = obs::trace_enabled();
  const double wait_begin_us = tracing ? obs::trace_now_us() : 0.0;
  BarrierWait wait;
  wait.net_round =
      config_.network.reduce_seconds(delta_leg_bytes_, config_.num_workers) +
      config_.network.broadcast_seconds(model_bytes_, config_.num_workers);
  const auto scheduled = [&](const Worker& worker) {
    return worker.busy && worker.pulled_round == round_;
  };
  // A barrier push lands after its local epochs' own sim time (the round is
  // priced as a collective), so each scheduled cycle is joined here.
  double healthy_max = 0.0;
  double runner_max = 0.0;
  for (int k = 0; k < config_.num_workers; ++k) {
    auto& worker = workers_[k];
    if (!scheduled(worker)) continue;
    auto& local = core(k);
    local.epochs.join();
    worker.event_at = now_ + push_offset(local.run_seconds, worker.fault);
    runner_max = std::max(runner_max, local.run_seconds);
    if (worker.fault.kind != FaultKind::kStall) {
      healthy_max = std::max(healthy_max, local.run_seconds);
    }
  }
  if (healthy_max == 0.0) healthy_max = runner_max;  // every runner stalled
  const double deadline = straggler_grace_ * (healthy_max + wait.net_round);
  // The critical push: the slowest the master waited for.  Its *nominal*
  // compute is the round's compute; stall inflation is straggler wait.
  double compute_max = 0.0;
  bool any_deadline_miss = false;
  for (int k = 0; k < config_.num_workers; ++k) {
    auto& worker = workers_[k];
    if (!scheduled(worker)) continue;
    const double offset = push_offset(core(k).run_seconds, worker.fault);
    if (offset > deadline) {
      // Missed the deadline: the worker keeps computing, and its delta
      // lands in the round its push arrives in.
      worker.late = true;
      any_deadline_miss = true;
      record_event(k, core::ClusterEventKind::kDeadlineMiss);
      continue;
    }
    if (offset > compute_max) {
      compute_max = offset;
      wait.crit_compute = core(k).run_seconds;
    }
  }
  // When a straggler blew the deadline the master waited out the full grace
  // window before giving up on it.
  wait.waited = any_deadline_miss
                    ? std::max(compute_max, straggler_grace_ * healthy_max)
                    : compute_max;
  if (tracing) {
    obs::trace_complete("dist/straggler_wait", wait_begin_us,
                        obs::trace_now_us() - wait_begin_us, master_track_,
                        round_);
  }
  return wait;
}

double ClusterSolver::close_barrier_round(double round_start,
                                          const BarrierWait& wait) {
  const bool tracing = obs::trace_enabled();

  // ---- Reduce: every push that arrived by the close — this round's
  // on-time cycles and any late delta whose push has landed since — summed
  // in worker-index order.
  const double reduce_begin_us = tracing ? obs::trace_now_us() : 0.0;
  const double close_at = round_start + wait.waited;
  std::vector<double> dshared(shared_.size(), 0.0);
  std::vector<std::size_t> movers;
  std::vector<double> fresh_arrivals;  // on-time push offsets (overlap)
  for (int k = 0; k < config_.num_workers; ++k) {
    const auto& worker = workers_[k];
    if (!worker.busy) continue;
    const bool fresh = worker.pulled_round == round_;
    if (fresh ? worker.late : worker.event_at > close_at) continue;
    if (!receive_push(k)) continue;
    for (std::size_t i = 0; i < shared_.size(); ++i) {
      dshared[i] += received_[i];
    }
    movers.push_back(static_cast<std::size_t>(k));
    if (fresh) {
      fresh_arrivals.push_back(
          push_offset(core(k).run_seconds, worker.fault));
    }
  }
  const int contributors = static_cast<int>(movers.size());
  last_contributors_ = contributors;
  if (tracing) {
    obs::trace_complete("dist/reduce", reduce_begin_us,
                        obs::trace_now_us() - reduce_begin_us, master_track_,
                        contributors);
  }

  // ---- γ, rescaled to the workers that actually delivered (degraded-mode
  // aggregation), then the broadcast leg: one master step over the batch.
  // A late delta lands at full strength: the invariant is linear in the
  // delta, so incorporating it late is exact, and only the descent quality
  // pays for the staleness (PASSCoDe).
  last_gamma_ = choose_gamma(dshared, movers,
                             contributors > 0 ? 1.0 / contributors : 0.0);
  const double bcast_begin_us = tracing ? obs::trace_now_us() : 0.0;
  if (contributors > 0) {
    apply_step(dshared, movers, last_gamma_);
    ++version_;
    obs::metrics().counter("cluster.async.applied").add(movers.size());
    for (const std::size_t k : movers) {
      round_updates_ += core(k).solver->state().weights.size();
      if (workers_[k].pulled_round != round_) {
        record_event(static_cast<int>(k), core::ClusterEventKind::kLateDelta);
      }
    }
  }
  if (tracing) {
    obs::trace_complete("dist/broadcast", bcast_begin_us,
                        obs::trace_now_us() - bcast_begin_us, master_track_,
                        round_);
  }

  // ---- The round's simulated time, priced as the collective (paper-scale
  // dimensions).  Host passes scale with the largest local weight vector:
  // the workers run in parallel, so the slowest (largest) one gates it.
  const auto shared_elems = static_cast<double>(global_workload_.shared_dim);
  double host_coords = 0.0;
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    host_coords = std::max(host_coords, host_coordinates(k));
  }
  // Attribution (DESIGN.md §15): the wait splits into the critical
  // worker's nominal compute plus straggler wait.
  obs::RoundAttribution attr;
  attr.compute_seconds = wait.crit_compute;
  attr.straggler_wait_seconds = wait.waited - wait.crit_compute;
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
    const double exposed = std::max(0.0, reduce_done - wait.waited);
    attr.network_seconds =
        exposed +
        config_.network.broadcast_seconds(model_bytes_, config_.num_workers);
  } else {
    attr.network_seconds = wait.net_round;
  }
  if (config_.aggregation == AggregationMode::kAdaptive) {
    // A few scalars ride along with the reduce/broadcast: one extra
    // latency-bound message each way.
    attr.network_seconds += config_.network.reduce_seconds(
                                4 * sizeof(double), config_.num_workers) +
                            config_.network.broadcast_seconds(
                                sizeof(double), config_.num_workers);
  }
  // The historical summation order: (waited + host) + pcie + network.
  const double round_seconds = wait.waited + attr.host_seconds +
                               attr.pcie_seconds + attr.network_seconds;
  close_round(attr, round_seconds);
  return round_seconds;
}

void ClusterSolver::drain_pushes() {
  // Pop the earliest pending event (ties break by slot) until the master
  // has absorbed one push attempt per live member.  Every push — applied,
  // damped, rejected, dropped or corrupted — counts as absorbed, so a round
  // makes progress even under total delta loss.
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
      restart(next);
      schedule_cycle(next);
      continue;
    }
    complete_cycle(next, segment);
    if (worker.status == AsyncWorkerStatus::kComputing && !worker.busy &&
        !worker.restart_pending) {
      schedule_cycle(next);
    }
  }
}

void ClusterSolver::complete_cycle(int index, double segment_seconds) {
  const auto k = static_cast<std::size_t>(index);
  auto& worker = workers_[k];
  auto& local = core(k);
  const std::uint64_t staleness = version_ - worker.pulled_version;

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

  if (!receive_push(index)) {
    charge_split(segment_seconds);
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
      local.solver->mutable_state().weights = local.weights_start;
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
  const std::size_t mover[] = {k};
  last_gamma_ =
      choose_gamma(received_, mover, 1.0 / std::max(1, live_workers()));
  const double apply_begin_us =
      obs::trace_enabled() ? obs::trace_now_us() : 0.0;
  apply_step(received_, mover, last_gamma_ * theta);
  ++version_;
  round_updates_ += local.solver->state().weights.size();
  obs::metrics().counter("cluster.async.applied").add();
  if (obs::trace_enabled()) {
    obs::trace_complete("async/apply", apply_begin_us,
                        obs::trace_now_us() - apply_begin_us, master_track_,
                        static_cast<std::int64_t>(version_));
  }
}

core::SavedModel ClusterSolver::checkpoint() {
  if (!barrier_) {
    // Rendezvous: drop in-flight cycles (their draws stay consumed) and
    // re-zero the simulated clock, shifting pending restart timers with it.
    // The post-rendezvous state is then numerically identical to what
    // restore() rebuilds — including the absolute event times the timeline
    // comparisons see, so resumed and straight-through runs cannot diverge
    // on floating-point tie-breaks.  A barrier run needs none of this: at a
    // round boundary only late deltas are in flight, and the sidecar
    // carries them and the clock as they are.
    for (std::size_t k = 0; k < workers_.size(); ++k) {
      discard_in_flight(k);
      if (workers_[k].restart_pending) workers_[k].event_at -= now_;
    }
    now_ = 0.0;
  }
  core::SavedModel saved;
  saved.formulation = config_.formulation;
  saved.lambda = config_.lambda;
  saved.epoch = static_cast<std::uint32_t>(round_);
  saved.weights = global_weights();
  saved.shared = shared_;
  return saved;
}

AsyncCheckpointState ClusterSolver::checkpoint_state() const {
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
  state.barrier = barrier_;
  if (!barrier_) return state;
  state.clock = now_;
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    const auto& worker = workers_[k];
    if (!worker.busy) continue;
    const auto& local = core(k).solver->state();
    AsyncCheckpointState::InFlightCycle cycle;
    cycle.worker = k;
    cycle.pulled_round = static_cast<std::uint64_t>(worker.pulled_round);
    cycle.pulled_version = worker.pulled_version;
    cycle.push_at = worker.event_at;
    cycle.weights = local.weights;
    cycle.shared = local.shared;
    cycle.pulled_shared = worker.pulled_shared;
    state.in_flight.push_back(std::move(cycle));
  }
  return state;
}

void ClusterSolver::write_checkpoint_file(const std::string& path) {
  core::write_model_file(path, checkpoint());
  write_async_state_file(async_state_path(path), checkpoint_state());
}

void ClusterSolver::validate_checkpoint(
    const core::SavedModel& saved, const AsyncCheckpointState& state) const {
  const std::string prefix = std::string(who_) + "::restore: ";
  if (round_ != 0) {
    throw std::logic_error(prefix +
                           "must be called on a fresh solver (rounds have "
                           "already run)");
  }
  const auto require = [&](bool ok, const std::string& what) {
    if (!ok) throw std::invalid_argument(prefix + what);
  };
  require(saved.formulation == config_.formulation,
          "checkpoint formulation mismatch");
  require(saved.weights.size() ==
                  static_cast<std::size_t>(
                      global_problem_.num_coordinates(config_.formulation)) &&
              saved.shared.size() == shared_.size(),
          "checkpoint dimensions do not match the dataset/partition");
  require(saved.lambda == config_.lambda,
          "checkpoint lambda " + std::to_string(saved.lambda) +
              " != configured " + std::to_string(config_.lambda));
  require(state.workers.size() == workers_.size(),
          "sidecar worker count " + std::to_string(state.workers.size()) +
              " != configured " + std::to_string(workers_.size()));
  require(state.seed == config_.seed,
          "sidecar seed mismatch (the partition and fault schedule would not "
          "replay)");
  require(static_cast<std::uint64_t>(saved.epoch) == state.round,
          "model epoch " + std::to_string(saved.epoch) + " != sidecar round " +
              std::to_string(state.round) + " (mismatched checkpoint pair)");
  require(state.barrier == barrier_,
          std::string("sidecar written by a ") +
              (state.barrier ? "barrier" : "no-barrier") + " run");

  // The digest only proves the sidecar is what a writer wrote; every field
  // the run reads back must also be one a run can have written.
  constexpr auto kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  const auto is_time = [](double t) { return std::isfinite(t) && t >= 0.0; };
  require(state.round <= kIntMax && is_time(state.clock),
          "sidecar round " + std::to_string(state.round) + " or clock " +
              std::to_string(state.clock) + " is out of range");
  const auto backoff = static_cast<std::uint32_t>(AsyncWorkerStatus::kBackoff);
  for (std::size_t k = 0; k < state.workers.size(); ++k) {
    const auto& ws = state.workers[k];
    require(ws.status <= static_cast<std::uint32_t>(
                             AsyncWorkerStatus::kDetached) &&
                ws.draws_consumed <= kIntMax && ws.crash_count <= kIntMax &&
                is_time(ws.restart_at) &&
                (ws.status == backoff || ws.restart_at == 0.0),
            "sidecar worker " + std::to_string(k) + " (status " +
                std::to_string(ws.status) + ", " +
                std::to_string(ws.draws_consumed) + " draws, " +
                std::to_string(ws.crash_count) + " crashes, restart at " +
                std::to_string(ws.restart_at) + ") cannot come from a run");
  }
  std::vector<bool> seen(workers_.size(), false);
  for (const auto& cycle : state.in_flight) {
    const auto k = cycle.worker;
    const auto all_finite = [](const std::vector<float>& values) {
      return std::all_of(values.begin(), values.end(),
                         [](float v) { return std::isfinite(v); });
    };
    // A late delta flies from a computing worker's pull, no later than the
    // checkpoint, with the partition's dimensions.
    require(k < workers_.size() && !seen[k] &&
                state.workers[k].status ==
                    static_cast<std::uint32_t>(AsyncWorkerStatus::kComputing) &&
                cycle.pulled_round >= 1 && cycle.pulled_round <= state.round &&
                cycle.pulled_version <= state.version &&
                is_time(cycle.push_at) &&
                cycle.weights.size() == partition_.owned[k].size() &&
                cycle.shared.size() == shared_.size() &&
                cycle.pulled_shared.size() == shared_.size() &&
                all_finite(cycle.weights) && all_finite(cycle.shared) &&
                all_finite(cycle.pulled_shared),
            "sidecar cycle in flight on worker " + std::to_string(k) +
                " cannot come from a run");
    seen[k] = true;
  }
}

void ClusterSolver::restore(const core::SavedModel& saved,
                            const AsyncCheckpointState& state) {
  validate_checkpoint(saved, state);
  shared_.assign(saved.shared.begin(), saved.shared.end());
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    auto& local = core(k);
    auto& local_state = local.solver->mutable_state();
    const auto& owned = partition_.owned[k];
    for (std::size_t j = 0; j < owned.size(); ++j) {
      local_state.weights[j] = saved.weights[owned[j]];
    }
    local_state.shared.assign(shared_.begin(), shared_.end());
    local.weights_start = local_state.weights;

    auto& worker = workers_[k];
    const auto& ws = state.workers[k];
    local.solver->skip_epoch_randomness(static_cast<int>(ws.draws_consumed));
    worker.draws_consumed = ws.draws_consumed;
    worker.status = static_cast<AsyncWorkerStatus>(ws.status);
    worker.crash_count = static_cast<int>(ws.crash_count);
    worker.busy = false;
    worker.restart_pending = worker.status == AsyncWorkerStatus::kBackoff;
    worker.event_at = ws.restart_at;
    worker.fault_round = -1;
  }
  // Re-arm the late deltas: the committed weights scattered above are their
  // pull snapshots, and each push lands in the round its wait closes after.
  for (const auto& cycle : state.in_flight) {
    const auto k = static_cast<std::size_t>(cycle.worker);
    auto& worker = workers_[k];
    auto& local_state = core(k).solver->mutable_state();
    local_state.weights = cycle.weights;
    local_state.shared = cycle.shared;
    worker.busy = true;
    worker.late = true;
    worker.pulled_round = static_cast<int>(cycle.pulled_round);
    worker.fault = injector_.query(worker.pulled_round, static_cast<int>(k));
    worker.pulled_version = cycle.pulled_version;
    worker.pulled_shared = cycle.pulled_shared;
    worker.event_at = cycle.push_at;
  }
  round_ = static_cast<int>(state.round);
  version_ = state.version;
  now_ = state.clock;
}

void ClusterSolver::restore_files(const std::string& path) {
  restore(core::read_model_file(path),
          read_async_state_file(async_state_path(path)));
}

}  // namespace tpa::cluster
