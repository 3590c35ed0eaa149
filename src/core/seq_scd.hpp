// Sequential stochastic coordinate descent (paper Algorithm 1).
//
// Its sweep applies, for each coordinate of core::Solver's fresh random
// permutation, the exact closed-form update (eq. 2 primal / eq. 4 dual)
// followed by the sparse shared-vector update.  This is the reference
// implementation every other solver is measured against.
#pragma once

#include <cstdint>
#include <span>

#include "core/cost_model.hpp"
#include "core/solver.hpp"

namespace tpa::core {

/// One sequential sweep of the exact coordinate updates in `order` against
/// (weights, shared) — the body of SeqScdSolver's epoch as a free function,
/// so shard-local sweeps (store/streaming_solver) run the identical code
/// path.  `order` holds coordinate ids local to `problem`, and `weights` is
/// indexed by those same local ids (a streamed run passes the resident
/// shard's alpha sub-span).
void scd_sweep(const RidgeProblem& problem, Formulation f,
               std::span<const std::uint32_t> order, std::span<float> weights,
               std::span<float> shared);

class SeqScdSolver final : public Solver {
 public:
  SeqScdSolver(const RidgeProblem& problem, Formulation f,
               std::uint64_t seed, CpuCostModel cost_model = {});

 private:
  double sweep(std::span<const std::uint32_t> order) override;

  CpuCostModel cost_model_;
  TimingWorkload workload_;
};

}  // namespace tpa::core
