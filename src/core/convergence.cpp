#include "core/convergence.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "core/cost_model.hpp"
#include "obs/json.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace tpa::core {

const char* cluster_event_name(ClusterEventKind kind) {
  static_assert(kClusterEventKindCount == 12,
                "added a ClusterEventKind? name it below, bump the count in "
                "convergence.hpp, and extend the exhaustive naming test");
  switch (kind) {
    case ClusterEventKind::kCrash:
      return "crash";
    case ClusterEventKind::kRestart:
      return "restart";
    case ClusterEventKind::kEvict:
      return "evict";
    case ClusterEventKind::kDeadlineMiss:
      return "deadline-miss";
    case ClusterEventKind::kLateDelta:
      return "late-delta";
    case ClusterEventKind::kDeltaDropped:
      return "delta-dropped";
    case ClusterEventKind::kDeltaCorrupted:
      return "delta-corrupted";
    case ClusterEventKind::kCheckpoint:
      return "checkpoint";
    case ClusterEventKind::kJoin:
      return "join";
    case ClusterEventKind::kLeave:
      return "leave";
    case ClusterEventKind::kStaleDamped:
      return "stale-damped";
    case ClusterEventKind::kStaleRejected:
      return "stale-rejected";
  }
  return "?";
}

std::size_t ConvergenceTrace::count_events(ClusterEventKind kind) const {
  std::size_t count = 0;
  for (const auto& event : events_) {
    if (event.kind == kind) ++count;
  }
  return count;
}

double ConvergenceTrace::final_gap() const {
  return points_.empty() ? 0.0 : points_.back().gap;
}

std::optional<double> ConvergenceTrace::sim_time_to_gap(double eps) const {
  for (const auto& point : points_) {
    if (point.gap <= eps) return point.sim_seconds;
  }
  return std::nullopt;
}

std::optional<int> ConvergenceTrace::epochs_to_gap(double eps) const {
  for (const auto& point : points_) {
    if (point.gap <= eps) return point.epoch;
  }
  return std::nullopt;
}

void ConvergenceTrace::write_csv(std::ostream& out) const {
  out << "epoch,gap,sim_seconds,wall_seconds,gamma,contributors\n";
  for (const auto& p : points_) {
    out << p.epoch << ',' << obs::json_number(p.gap) << ','
        << obs::json_number(p.sim_seconds) << ','
        << obs::json_number(p.wall_seconds) << ',' << obs::json_number(p.gamma)
        << ',' << p.contributors << '\n';
  }
}

void ConvergenceTrace::write_jsonl(std::ostream& out) const {
  for (const auto& p : points_) {
    out << obs::JsonObject()
               .field_str("type", "point")
               .field_int("epoch", p.epoch)
               .field_num("gap", p.gap)
               .field_num("sim_seconds", p.sim_seconds)
               .field_num("wall_seconds", p.wall_seconds)
               .field_num("gamma", p.gamma)
               .field_int("contributors", p.contributors)
               .str()
        << '\n';
  }
  for (const auto& e : events_) {
    out << obs::JsonObject()
               .field_str("type", "event")
               .field_int("epoch", e.epoch)
               .field_int("worker", e.worker)
               .field_str("kind", cluster_event_name(e.kind))
               .str()
        << '\n';
  }
}

namespace {

std::ofstream open_for_write(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("ConvergenceTrace: cannot open " + path +
                             " for writing");
  }
  return out;
}

}  // namespace

void ConvergenceTrace::write_csv_file(const std::string& path) const {
  auto out = open_for_write(path);
  write_csv(out);
}

void ConvergenceTrace::write_jsonl_file(const std::string& path) const {
  auto out = open_for_write(path);
  write_jsonl(out);
}

int effective_gap_interval(const RunOptions& options) {
  const int interval =
      options.gap_every > 0 ? options.gap_every : options.record_interval;
  return std::max(1, interval);
}

ConvergenceTrace run_solver(Solver& solver, const RidgeProblem& problem,
                            const RunOptions& options) {
  ConvergenceTrace trace;
  double sim_total =
      options.include_setup_time ? solver.setup_sim_seconds() : 0.0;
  double wall_total = 0.0;
  const int interval = effective_gap_interval(options);
  if (checked_merge_every(options.merge_every, "RunOptions") != 0) {
    solver.set_merge_every(options.merge_every);
  }
  // A gap evaluation streams the matrix once (one entry-visit per stored
  // nonzero) plus the dense vector terms; only build a pool when the cost
  // model predicts the requested workers actually beat the serial pass on
  // this host — otherwise the pooled gap regresses on small problems.
  const int gap_threads = pool_dispatch().dispatch_threads(
      problem.dataset().nnz(), options.gap_threads);
  std::unique_ptr<util::ThreadPool> gap_pool;
  if (gap_threads > 1) {
    gap_pool = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(gap_threads));
  }
  auto& epoch_counter = obs::metrics().counter("train.epochs");
  auto& gap_counter = obs::metrics().counter("train.gap_evals");
  for (int epoch = 1; epoch <= options.max_epochs; ++epoch) {
    const auto report = [&] {
      obs::TraceSpan span("train/epoch", obs::kCurrentThread, epoch);
      return solver.run_epoch();
    }();
    epoch_counter.add();
    sim_total += report.sim_seconds;
    wall_total += report.wall_seconds;
    if (epoch % interval == 0 || epoch == options.max_epochs) {
      TracePoint point;
      point.epoch = epoch;
      {
        obs::TraceSpan span("train/gap_eval", obs::kCurrentThread, epoch);
        point.gap = solver.duality_gap(problem, gap_pool.get());
      }
      gap_counter.add();
      point.sim_seconds = sim_total;
      point.wall_seconds = wall_total;
      trace.add(point);
      if (options.target_gap > 0.0 && point.gap <= options.target_gap) break;
    }
  }
  return trace;
}

}  // namespace tpa::core
