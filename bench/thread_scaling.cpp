// Thread-scaling bench: epoch wall time versus thread count for the real-
// threaded solvers — the atomic write-back baseline (always dispatched to
// the pool, as the pre-replication code did) against the replicated solver
// (plain stores into per-thread replicas, cost-model dispatch) — on a small
// and a large synthetic problem, with the sequential epoch as the yardstick.
// Emits BENCH_threads.json via bench_json with build provenance.
//
// Two replicated rows per thread count:
//   replicated/tN            — the auto configuration (convergence-safe
//                              merge interval, core::replica_auto_interval);
//                              pays a merge every ~coords/64 updates.
//   replicated_writeback/tN  — one merge per epoch: isolates the cost of
//                              the write-back mechanism itself (plain
//                              stores + a single delta-merge), the quantity
//                              the contention-free design exists to fix.
//                              Runs under-relaxed (replica_damping), so it
//                              is stable, just slower-converging.
//
// With --check it asserts the replicated_writeback epoch at --check-threads
// on the large problem is within --slack of the sequential epoch, the two
// timed in alternating trials — the regression gate CI runs (the contended
// atomic path fails this by multiples; see the committed numbers).
//
//   thread_scaling --out-dir . --check --slack 1.05
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/cost_model.hpp"
#include "core/ridge_problem.hpp"
#include "core/seq_scd.hpp"
#include "core/threaded_scd.hpp"
#include "data/generators.hpp"
#include "util/cli.hpp"

namespace {

using namespace tpa;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct ProblemTimes {
  double seq = 0.0;
  // The gated pair, timed in alternating trials: replicated_writeback at
  // --check-threads and the sequential epoch beside it.
  double writeback_at_check = 0.0;
  double seq_at_check = 0.0;
};

ProblemTimes bench_problem(const std::string& label,
                           const data::Dataset& dataset, int trials,
                           int check_threads,
                           std::vector<bench::BenchResult>& results) {
  const core::RidgeProblem problem(dataset, 1e-3);
  constexpr auto kForm = core::Formulation::kDual;
  ProblemTimes times;

  core::SeqScdSolver seq_solver(problem, kForm, 7);
  const auto seq_epoch = [&] { seq_solver.run_epoch(); };
  times.seq = bench::best_of(trials, seq_epoch);
  results.push_back({label + "/seq_epoch", times.seq, "seconds", {}});
  std::printf("%-6s seq            %9.5fs\n", label.c_str(), times.seq);

  for (const int t : kThreadCounts) {
    // Atomic baseline: fetch_add write-back, unconditionally dispatched to
    // the pool — exactly the pre-replication threaded path.
    core::ThreadedScdSolver atomic_solver(problem, kForm, t,
                                          core::CommitPolicy::kAtomicAdd, 7);
    const double atomic_s =
        bench::best_of(trials, [&] { atomic_solver.run_epoch(); });
    results.push_back({label + "/atomic/t" + std::to_string(t), atomic_s,
                       "seconds",
                       {{"threads", static_cast<double>(t)},
                        {"speedup_vs_seq", times.seq / atomic_s}}});

    // Replicated, auto configuration: plain stores into private replicas,
    // merged on the convergence-safe automatic interval; serial-vs-pooled
    // execution picked by the cost model for this host (results are
    // identical either way).
    const auto coords = problem.num_coordinates(kForm);
    core::ThreadedScdSolver rep_solver(problem, kForm, t,
                                       core::CommitPolicy::kReplicated, 7);
    const double rep_s =
        bench::best_of(trials, [&] { rep_solver.run_epoch(); });
    const int interval = core::replica_auto_interval(
        dataset.nnz(), coords, problem.shared_dim(kForm), t);
    results.push_back({label + "/replicated/t" + std::to_string(t), rep_s,
                       "seconds",
                       {{"threads", static_cast<double>(t)},
                        {"speedup_vs_seq", times.seq / rep_s},
                        {"speedup_vs_atomic", atomic_s / rep_s},
                        {"merge_interval", static_cast<double>(interval)},
                        {"damping",
                         core::replica_damping(coords, t, interval)}}});

    // Write-back mechanism cost: one merge per epoch (merge_every = the
    // whole per-thread slice).  Under-relaxed by replica_damping, so the
    // configuration is stable; the wall time isolates plain-store scatter +
    // a single delta-merge against the atomic fetch_add baseline.
    const int slice_len =
        static_cast<int>((coords + static_cast<unsigned>(t) - 1) /
                         static_cast<unsigned>(t));
    core::ThreadedScdSolver wb_solver(problem, kForm, t,
                                      core::CommitPolicy::kReplicated, 7,
                                      /*cost_model=*/{}, slice_len);
    const auto wb_epoch = [&] { wb_solver.run_epoch(); };
    double wb_s = 0.0;
    if (t == check_threads) {
      std::tie(wb_s, times.seq_at_check) =
          bench::best_of_pair(trials, wb_epoch, seq_epoch);
      times.writeback_at_check = wb_s;
    } else {
      wb_s = bench::best_of(trials, wb_epoch);
    }
    results.push_back(
        {label + "/replicated_writeback/t" + std::to_string(t), wb_s,
         "seconds",
         {{"threads", static_cast<double>(t)},
          {"speedup_vs_seq", times.seq / wb_s},
          {"speedup_vs_atomic", atomic_s / wb_s},
          {"merge_interval", static_cast<double>(slice_len)},
          {"damping", core::replica_damping(coords, t, slice_len)}}});
    std::printf(
        "%-6s t=%d   atomic %9.5fs   replicated %9.5fs (%.2fx vs atomic)   "
        "writeback %9.5fs (%.2fx vs atomic, %.2fx vs seq)\n",
        label.c_str(), t, atomic_s, rep_s, atomic_s / rep_s, wb_s,
        atomic_s / wb_s, times.seq / wb_s);
  }
  return times;
}

int run(int argc, char** argv) {
  util::ArgParser parser("thread_scaling",
                         "epoch time vs threads: atomic vs replicated");
  parser.add_option("out-dir", "directory for BENCH_threads.json", ".");
  parser.add_option("trials", "timing trials per measurement", "3");
  parser.add_option("small-examples", "small synthetic example count", "2048");
  parser.add_option("small-features", "small synthetic feature count", "4096");
  parser.add_option("large-examples", "large synthetic example count",
                    "32768");
  parser.add_option("large-features", "large synthetic feature count",
                    "65536");
  parser.add_option("check-threads", "thread count the --check gate uses",
                    "4");
  parser.add_option("slack",
                    "--check fails if replicated_writeback > seq * slack on "
                    "the large problem",
                    "1.05");
  parser.add_flag("check", "exit non-zero if the replicated epoch regresses");
  if (!parser.parse(argc, argv)) return 1;

  const auto out_dir = parser.get_string("out-dir", ".");
  const int trials = static_cast<int>(parser.get_int("trials", 3));
  const int check_threads =
      static_cast<int>(parser.get_int("check-threads", 4));
  const double slack = parser.get_double("slack", 1.05);

  std::vector<bench::BenchResult> results;

  data::WebspamLikeConfig small;
  small.num_examples =
      static_cast<data::Index>(parser.get_int("small-examples", 2048));
  small.num_features =
      static_cast<data::Index>(parser.get_int("small-features", 4096));
  const auto small_dataset = data::make_webspam_like(small);
  std::printf("small: %u x %u, nnz %zu\n", small_dataset.num_examples(),
              small_dataset.num_features(),
              static_cast<std::size_t>(small_dataset.nnz()));
  bench_problem("small", small_dataset, trials, check_threads, results);

  data::WebspamLikeConfig large;
  large.num_examples =
      static_cast<data::Index>(parser.get_int("large-examples", 32768));
  large.num_features =
      static_cast<data::Index>(parser.get_int("large-features", 65536));
  const auto large_dataset = data::make_webspam_like(large);
  std::printf("large: %u x %u, nnz %zu\n", large_dataset.num_examples(),
              large_dataset.num_features(),
              static_cast<std::size_t>(large_dataset.nnz()));
  const auto large_times =
      bench_problem("large", large_dataset, trials, check_threads, results);

  bench::write_json_file(out_dir + "/BENCH_threads.json", "threads", results);
  std::printf("wrote %s/BENCH_threads.json\n", out_dir.c_str());

  if (parser.get_bool("check")) {
    if (large_times.writeback_at_check > large_times.seq_at_check * slack) {
      std::printf(
          "CHECK FAILED: replicated_writeback epoch (%d threads) %.5fs > "
          "seq %.5fs * slack %.2f on the large problem\n",
          check_threads, large_times.writeback_at_check,
          large_times.seq_at_check, slack);
      return 2;
    }
    std::printf("thread-scaling check passed (slack %.2f)\n", slack);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
