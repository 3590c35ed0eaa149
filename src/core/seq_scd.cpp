#include "core/seq_scd.hpp"

#include "linalg/vector_ops.hpp"

namespace tpa::core {

void scd_sweep(const RidgeProblem& problem, Formulation f,
               std::span<const std::uint32_t> order, std::span<float> weights,
               std::span<float> shared) {
  for (const auto j : order) {
    const double delta = problem.coordinate_delta(f, j, shared, weights[j]);
    weights[j] = static_cast<float>(weights[j] + delta);
    linalg::sparse_axpy(delta, problem.coordinate_vector_unpadded(f, j),
                        shared);
  }
}

SeqScdSolver::SeqScdSolver(const RidgeProblem& problem, Formulation f,
                           std::uint64_t seed, CpuCostModel cost_model)
    : Solver(problem, f, seed, "SCD (1 thread)", "seq_scd/shuffle",
             "seq_scd/sweep"),
      cost_model_(cost_model),
      workload_(TimingWorkload::for_dataset(problem.dataset(), f)) {}

double SeqScdSolver::sweep(std::span<const std::uint32_t> order) {
  auto& state = mutable_state();
  scd_sweep(problem(), formulation(), order, state.weights, state.shared);
  return cost_model_.epoch_seconds_sequential(workload_);
}

}  // namespace tpa::core
