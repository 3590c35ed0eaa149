// Construction of local solvers by kind — the single switch point used by
// the distributed engine, the benches and the examples.  Every kind is a
// core::Solver, the one epoch, around its own sweep.  The one replicated
// kind, rep-threads, sweeps with core::replicated_sweep; TPA-SCD does too
// when merge_every > 0.  The merge interval is fixed here, at construction:
// no solver can change it afterwards.
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
  /// core::replica_auto_interval), passed to the ThreadedScdSolver
  /// constructor and to TpaScdOptions; the other kinds ignore it.  Must not
  /// be negative: make_solver refuses it for every kind.
  int merge_every = 0;
};

/// Builds the solver; throws std::invalid_argument for inconsistent config.
std::unique_ptr<Solver> make_solver(const RidgeProblem& problem,
                                    const SolverConfig& config);

/// Parses "seq" | "ascd" | "wild" | "ascd-threads" | "rep-threads" |
/// "tpa-m4000" | "tpa-titanx"; throws std::invalid_argument otherwise.
SolverKind parse_solver_kind(const std::string& name);

const char* solver_kind_name(SolverKind kind);

}  // namespace tpa::core
