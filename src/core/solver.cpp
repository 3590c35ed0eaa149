#include "core/solver.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace tpa::core {

Solver::Solver(const RidgeProblem& problem, Formulation f, std::uint64_t seed,
               std::string name, const char* shuffle_span,
               const char* sweep_span)
    : problem_(&problem),
      formulation_(f),
      name_(std::move(name)),
      state_(ModelState::zeros(problem, f)),
      permutation_(problem.num_coordinates(f), util::Rng(seed)),
      shuffle_span_(shuffle_span),
      sweep_span_(sweep_span) {
  // Build the dataset's columns here, so no epoch or sweep span times it.
  if (f == Formulation::kPrimal) problem.dataset().bucketed_cols();
}

EpochReport Solver::run_epoch() {
  const util::WallTimer timer;
  const auto order = [this] {
    obs::TraceSpan shuffle(shuffle_span_);
    return permutation_.next();
  }();
  EpochReport report;
  report.coordinate_updates = order.size();
  {
    obs::TraceSpan span(sweep_span_);
    report.sim_seconds = sweep(order);
  }
  report.wall_seconds = timer.seconds();
  return report;
}

}  // namespace tpa::core
