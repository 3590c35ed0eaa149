// The elastic net's regularisation path.
//
// The elastic net itself is a loss of RidgeProblem (Loss::elastic_net, see
// ridge_problem.hpp), so every make_solver kind runs it.  What is specific to
// it is the glmnet-style path of Friedman et al. [4] — the same reference as
// the paper's Algorithm 1: a geometric λ grid from λ_max, where every
// coefficient is zero, down to λ_min, each solve warm-started from the
// previous solution.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace tpa::core {

/// One solution along a regularisation path.
struct PathPoint {
  double lambda = 0.0;
  std::size_t nonzeros = 0;
  double objective = 0.0;
  std::vector<float> beta;
};

struct PathOptions {
  double l1_ratio = 1.0;          // must be > 0 (a pure L2 path is flat)
  int num_lambdas = 20;           // geometric grid size
  double lambda_min_ratio = 1e-3; // lambda_min = ratio * lambda_max
  int epochs_per_lambda = 20;
  std::uint64_t seed = 1;
};

/// The smallest λ at which every coefficient is exactly zero:
/// λ_max = max_m |⟨y, a_m⟩| / (N·η).  Throws std::invalid_argument unless
/// l1_ratio > 0.
double elastic_net_lambda_max(const data::Dataset& dataset, double l1_ratio);

/// Computes the path with sequential SCD (make_solver's kSequential), each
/// solve warm-started through Solver::mutable_state — the standard way
/// coordinate descent traces a whole family of models for barely more than
/// the cost of one.  Throws std::invalid_argument for l1_ratio outside
/// (0, 1] or a grid that is not num_lambdas >= 2 and 0 < lambda_min_ratio
/// < 1.
std::vector<PathPoint> elastic_net_path(const data::Dataset& dataset,
                                        const PathOptions& options);

}  // namespace tpa::core
