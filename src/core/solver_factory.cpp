#include "core/solver_factory.hpp"

#include <stdexcept>

#include "core/async_scd.hpp"
#include "core/seq_scd.hpp"
#include "core/threaded_scd.hpp"
#include "core/tpa_scd.hpp"

namespace tpa::core {

std::unique_ptr<Solver> make_solver(const RidgeProblem& problem,
                                    const SolverConfig& config) {
  checked_merge_every(config.merge_every, "SolverConfig");
  auto with_merge = [&config](std::unique_ptr<Solver> solver) {
    if (config.merge_every != 0) solver->set_merge_every(config.merge_every);
    return solver;
  };
  switch (config.kind) {
    case SolverKind::kSequential:
      return std::make_unique<SeqScdSolver>(problem, config.formulation,
                                            config.seed, config.cpu_cost);
    case SolverKind::kAsyncAtomic:
      return std::make_unique<AScdSolver>(problem, config.formulation,
                                          config.threads, config.seed,
                                          config.cpu_cost);
    case SolverKind::kAsyncWild:
      return std::make_unique<PasscodeWildSolver>(
          problem, config.formulation, config.threads, config.seed,
          config.cpu_cost);
    case SolverKind::kThreadedAtomic:
      return std::make_unique<ThreadedScdSolver>(
          problem, config.formulation, config.threads,
          CommitPolicy::kAtomicAdd, config.seed, config.cpu_cost);
    case SolverKind::kThreadedWild:
      return std::make_unique<ThreadedScdSolver>(
          problem, config.formulation, config.threads,
          CommitPolicy::kLastWriterWins, config.seed, config.cpu_cost);
    case SolverKind::kThreadedReplicated:
      return with_merge(std::make_unique<ThreadedScdSolver>(
          problem, config.formulation, config.threads,
          CommitPolicy::kReplicated, config.seed, config.cpu_cost));
    case SolverKind::kTpaM4000: {
      TpaScdOptions options;
      options.device = gpusim::DeviceSpec::quadro_m4000();
      options.charge_paper_scale_memory = config.charge_paper_scale_memory;
      return with_merge(std::make_unique<TpaScdSolver>(
          problem, config.formulation, config.seed, options));
    }
    case SolverKind::kTpaTitanX: {
      TpaScdOptions options;
      options.device = gpusim::DeviceSpec::titan_x();
      options.charge_paper_scale_memory = config.charge_paper_scale_memory;
      return with_merge(std::make_unique<TpaScdSolver>(
          problem, config.formulation, config.seed, options));
    }
  }
  throw std::invalid_argument("make_solver: unknown solver kind");
}

SolverKind parse_solver_kind(const std::string& name) {
  if (name == "seq") return SolverKind::kSequential;
  if (name == "ascd") return SolverKind::kAsyncAtomic;
  if (name == "wild") return SolverKind::kAsyncWild;
  if (name == "ascd-threads") return SolverKind::kThreadedAtomic;
  if (name == "wild-threads") return SolverKind::kThreadedWild;
  if (name == "rep-threads") return SolverKind::kThreadedReplicated;
  if (name == "tpa-m4000") return SolverKind::kTpaM4000;
  if (name == "tpa-titanx") return SolverKind::kTpaTitanX;
  throw std::invalid_argument("unknown solver kind: " + name);
}

const char* solver_kind_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::kSequential:
      return "seq";
    case SolverKind::kAsyncAtomic:
      return "ascd";
    case SolverKind::kAsyncWild:
      return "wild";
    case SolverKind::kThreadedAtomic:
      return "ascd-threads";
    case SolverKind::kThreadedWild:
      return "wild-threads";
    case SolverKind::kThreadedReplicated:
      return "rep-threads";
    case SolverKind::kTpaM4000:
      return "tpa-m4000";
    case SolverKind::kTpaTitanX:
      return "tpa-titanx";
  }
  return "unknown";
}

}  // namespace tpa::core
