#include "core/elastic_net.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/solver_factory.hpp"
#include "linalg/vector_ops.hpp"

namespace tpa::core {

double elastic_net_lambda_max(const data::Dataset& dataset,
                              double l1_ratio) {
  if (!(l1_ratio > 0.0)) {
    throw std::invalid_argument("lambda_max needs an L1 component");
  }
  const auto n = static_cast<double>(dataset.num_examples());
  const auto labels = dataset.labels();
  double worst = 0.0;
  for (Index m = 0; m < dataset.num_features(); ++m) {
    const double correlation =
        linalg::sparse_dot(dataset.by_col().col(m), labels);
    worst = std::max(worst, std::abs(correlation));
  }
  return worst / (n * l1_ratio);
}

std::vector<PathPoint> elastic_net_path(const data::Dataset& dataset,
                                        const PathOptions& options) {
  if (!(options.l1_ratio > 0.0 && options.l1_ratio <= 1.0)) {
    throw std::invalid_argument("elastic_net_path: l1_ratio must be (0,1]");
  }
  if (options.num_lambdas < 2 ||
      !(options.lambda_min_ratio > 0.0 && options.lambda_min_ratio < 1.0)) {
    throw std::invalid_argument("elastic_net_path: bad grid parameters");
  }
  const double lambda_max =
      elastic_net_lambda_max(dataset, options.l1_ratio);
  const double decay =
      std::pow(options.lambda_min_ratio,
               1.0 / static_cast<double>(options.num_lambdas - 1));

  SolverConfig config;
  config.kind = SolverKind::kSequential;
  config.formulation = Formulation::kPrimal;
  config.seed = options.seed;

  std::vector<PathPoint> path;
  path.reserve(static_cast<std::size_t>(options.num_lambdas));
  std::vector<float> warm(dataset.num_features(), 0.0F);
  double lambda = lambda_max;
  for (int step = 0; step < options.num_lambdas; ++step) {
    const RidgeProblem problem(dataset, lambda,
                               Loss::elastic_net(options.l1_ratio));
    const auto solver = make_solver(problem, config);
    ModelState& state = solver->mutable_state();
    state.weights = warm;
    state.recompute_shared(problem);
    for (int epoch = 0; epoch < options.epochs_per_lambda; ++epoch) {
      solver->run_epoch();
    }
    warm = state.weights;

    PathPoint point;
    point.lambda = lambda;
    point.nonzeros = static_cast<std::size_t>(std::count_if(
        warm.begin(), warm.end(), [](float b) { return b != 0.0F; }));
    point.objective = problem.primal_objective(state.weights, state.shared);
    point.beta = warm;
    path.push_back(std::move(point));
    lambda *= decay;
  }
  return path;
}

}  // namespace tpa::core
