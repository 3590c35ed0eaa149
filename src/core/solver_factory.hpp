// Construction of local solvers by kind — the single switch point used by
// the distributed engine, the benches and the examples.  The one replicated
// kind, rep-threads, runs core::replicated_sweep; TPA-SCD does too when
// merge_every > 0.
#pragma once

#include <memory>
#include <string>

#include "core/cost_model.hpp"
#include "core/solver.hpp"

namespace tpa::core {

enum class SolverKind {
  kSequential,          // Algorithm 1, single thread
  kAsyncAtomic,         // A-SCD, deterministic round model
  kAsyncWild,           // PASSCoDe-Wild, deterministic round model
  kThreadedAtomic,      // A-SCD on real std::threads
  kThreadedWild,        // PASSCoDe-Wild on real std::threads
  kThreadedReplicated,  // replicated SCD: deterministic lanes, pooled
  kTpaM4000,            // TPA-SCD on the simulated Quadro M4000
  kTpaTitanX,           // TPA-SCD on the simulated GTX Titan X
};

struct SolverConfig {
  SolverKind kind = SolverKind::kSequential;
  Formulation formulation = Formulation::kPrimal;
  int threads = 16;          // CPU async variants
  std::uint64_t seed = 1234;
  CpuCostModel cpu_cost{};
  bool charge_paper_scale_memory = false;  // TPA variants
  /// Replicated variants: updates per worker between merges (0 = automatic,
  /// core::replica_auto_interval); forwarded via Solver::set_merge_every.
  /// Must not be negative.
  int merge_every = 0;
};

/// Builds the solver; throws std::invalid_argument for inconsistent config.
std::unique_ptr<Solver> make_solver(const RidgeProblem& problem,
                                    const SolverConfig& config);

/// Parses "seq" | "ascd" | "wild" | "ascd-threads" | "wild-threads" |
/// "rep-threads" | "tpa-m4000" | "tpa-titanx"; throws std::invalid_argument
/// otherwise.
SolverKind parse_solver_kind(const std::string& name);

const char* solver_kind_name(SolverKind kind);

}  // namespace tpa::core
