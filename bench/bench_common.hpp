// Shared infrastructure for the figure-reproduction harnesses.
//
// Every fig*_ binary accepts a common set of CLI options (dataset scale,
// epochs, λ, --csv), builds the scaled webspam- or criteo-like dataset, and
// prints (a) the dataset summary, (b) the figure's series as an aligned
// table, and (c) a shape-check line comparing the measured headline ratio
// with the paper's.  Simulated times are evaluated at paper-scale dataset
// statistics; see DESIGN.md §5.
#pragma once

#include <algorithm>
#include <chrono>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/convergence.hpp"
#include "core/solver_factory.hpp"
#include "data/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace tpa::bench {

struct BenchOptions {
  data::Index examples = 6144;
  data::Index features = 12288;
  double lambda = 1e-3;
  int max_epochs = 50;
  std::uint64_t seed = 42;
  bool csv = false;
};

/// Best-of-`trials` wall time of fn(), in seconds.  Best-of (rather than
/// mean) rejects scheduler noise, which dominates on shared hosts.
template <typename Fn>
double best_of(int trials, const Fn& fn) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const auto start = clock::now();
    fn();
    best = std::min(
        best, std::chrono::duration<double>(clock::now() - start).count());
  }
  return best;
}

/// Best-of-`trials` wall times of a() and b(), timed in alternating trials
/// (a then b, then b then a, ...), so load that comes and goes during the
/// measurement reaches both sides of a compared pair alike.  Every gated
/// ratio of perf_smoke and thread_scaling is timed this way.
template <typename A, typename B>
std::pair<double, double> best_of_pair(int trials, const A& a, const B& b) {
  double best_a = 1e300;
  double best_b = 1e300;
  for (int t = 0; t < trials; ++t) {
    if (t % 2 == 0) {
      best_a = std::min(best_a, best_of(1, a));
      best_b = std::min(best_b, best_of(1, b));
    } else {
      best_b = std::min(best_b, best_of(1, b));
      best_a = std::min(best_a, best_of(1, a));
    }
  }
  return {best_a, best_b};
}

/// Registers the common options on `parser`.
void add_common_options(util::ArgParser& parser);

/// Extracts the common options after parse().
BenchOptions read_common_options(const util::ArgParser& parser);

/// Builds the webspam-like dataset at the requested scale and prints its
/// summary to stderr.
data::Dataset make_webspam(const BenchOptions& options);

/// Prints `table` as text (or CSV when options.csv).
void emit(const util::Table& table, const BenchOptions& options);

/// Prints a one-line qualitative comparison with the paper, e.g.
///   shape-check: TitanX/seq dual speed-up = 33.8x (paper: ~35x)
void shape_check(const std::string& description, double measured,
                 const std::string& paper_value);

/// First recorded gap <= eps => that point's sim time; otherwise the last
/// sim time (lower bound marker).  Returns (seconds, reached).
std::pair<double, bool> time_to_gap(const core::ConvergenceTrace& trace,
                                    double eps);

struct SolverRun {
  std::string name;
  core::ConvergenceTrace trace;
  double sim_seconds_per_epoch = 0.0;
};

/// Runs each solver kind on `problem` and records its convergence trace.
/// All runs share max_epochs / record cadence so the per-epoch tables align.
std::vector<SolverRun> run_solver_suite(
    const core::RidgeProblem& problem, core::Formulation formulation,
    std::span<const core::SolverKind> kinds, const BenchOptions& options,
    int record_interval = 1);

/// Duality gap vs epochs, one column per solver (Figs. 1a / 2a).
void print_gap_vs_epochs(const std::vector<SolverRun>& runs,
                         const BenchOptions& options);

/// Per-solver summary: sim s/epoch, final gap, simulated time to `eps`, and
/// speed-up relative to the first run (Figs. 1b / 2b).
void print_time_summary(const std::vector<SolverRun>& runs, double eps,
                        const BenchOptions& options);

/// Simulated-time speed-up of runs[idx] over runs[0] at gap `eps`
/// (0 when either run never reaches eps).
double speedup_vs_first(const std::vector<SolverRun>& runs, std::size_t idx,
                        double eps);

}  // namespace tpa::bench
