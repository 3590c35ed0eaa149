// Perf smoke harness: times the kernel layer (scalar reference vs the
// multi-accumulator vectorized backend, including the delta codec's encode
// and decode per entry) and the system-level hot paths
// (sequential epoch per backend, pooled threaded epoch, serial vs pooled
// duality gap, gap_every amortisation), then emits the measurements as
// BENCH_kernels.json and BENCH_epoch.json via the bench_json emitter.
//
// With --check it also *asserts* that the vectorized backend is not slower
// than the scalar reference beyond a slack factor, so CI catches a kernel
// regression without depending on the absolute speed of the runner.  Each
// scalar/vectorized pair is timed in alternating trials
// (bench::best_of_pair), so host load shifts both sides of a ratio alike.
//
//   perf_smoke --out-dir . --check --slack 1.15
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "cluster/delta_codec.hpp"
#include "core/convergence.hpp"
#include "core/ridge_problem.hpp"
#include "core/seq_scd.hpp"
#include "core/threaded_scd.hpp"
#include "data/generators.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace tpa;

volatile double g_sink = 0.0;  // defeats dead-code elimination

/// Nanoseconds per nnz (or per entry, for the codec) on each backend.
struct KernelTimes {
  double scalar_ns = 0.0;
  double vec_ns = 0.0;
  double speedup() const { return scalar_ns / vec_ns; }
};

/// The views of the bucketed rows a kernel pair runs over: the padded ones
/// the reductions read, or the unpadded slices every scatter reads.
enum class Views { kPadded, kUnpadded };

/// Times one full sweep of `fn(view)` over every bucketed row view with both
/// backends, per entry of those views.  Both backends see identical views,
/// so the comparison isolates the kernel body.
template <typename ScalarFn, typename VecFn>
KernelTimes time_kernel(const data::Dataset& dataset, Views views, int trials,
                        const ScalarFn& scalar_fn, const VecFn& vec_fn) {
  const auto& rows = dataset.bucketed_rows();
  const bool padded = views == Views::kPadded;
  const auto view = [&](sparse::Index r) {
    return padded ? rows.padded(r) : rows.unpadded(r);
  };
  const double entries =
      static_cast<double>(padded ? rows.padded_nnz() : dataset.nnz());
  const auto [scalar_s, vec_s] = bench::best_of_pair(
      trials,
      [&] {
        for (sparse::Index r = 0; r < rows.count(); ++r) scalar_fn(view(r));
      },
      [&] {
        for (sparse::Index r = 0; r < rows.count(); ++r) vec_fn(view(r));
      });
  return {1e9 / entries * scalar_s, 1e9 / entries * vec_s};
}

void add_kernel_result(std::vector<bench::BenchResult>& results,
                       const std::string& name, const KernelTimes& times,
                       const std::string& per = "nnz") {
  const std::string unit = "ns_per_" + per;
  results.push_back({name + "/scalar", times.scalar_ns, unit, {}});
  results.push_back({name + "/vectorized", times.vec_ns, unit,
                     {{"speedup_vs_scalar", times.speedup()}}});
  std::printf("%-24s scalar %7.3f ns/%s   vectorized %7.3f ns/%s   %.2fx\n",
              name.c_str(), times.scalar_ns, per.c_str(), times.vec_ns,
              per.c_str(), times.speedup());
}

int run(int argc, char** argv) {
  util::ArgParser parser("perf_smoke",
                         "kernel + epoch perf smoke test with JSON output");
  parser.add_option("out-dir", "directory for BENCH_*.json", ".");
  parser.add_option("examples", "generated example count", "4096");
  parser.add_option("features", "generated feature count", "8192");
  parser.add_option("trials", "timing trials per measurement", "5");
  parser.add_option("epochs", "epochs for the gap_every comparison", "10");
  parser.add_option("threads", "threads for pooled measurements", "4");
  parser.add_option("slack",
                    "--check fails if vectorized > scalar * slack", "1.15");
  parser.add_flag("check", "exit non-zero on a kernel perf regression");
  if (!parser.parse(argc, argv)) return 1;

  const auto out_dir = parser.get_string("out-dir", ".");
  const int trials = static_cast<int>(parser.get_int("trials", 5));
  const int threads = static_cast<int>(parser.get_int("threads", 4));
  const double slack = parser.get_double("slack", 1.15);

  data::WebspamLikeConfig config;
  config.num_examples =
      static_cast<data::Index>(parser.get_int("examples", 4096));
  config.num_features =
      static_cast<data::Index>(parser.get_int("features", 8192));
  const auto dataset = data::make_webspam_like(config);
  std::printf("dataset: %u x %u, nnz %zu (padded %zu)\n",
              dataset.num_examples(), dataset.num_features(),
              static_cast<std::size_t>(dataset.nnz()),
              dataset.bucketed_rows().padded_nnz());

  // ---- kernel suite -------------------------------------------------------
  std::vector<bench::BenchResult> kernels;
  std::vector<float> dense(dataset.num_features(), 1.5F);
  std::vector<float> target(dataset.num_features(), 0.5F);

  const auto dot_times = time_kernel(
      dataset, Views::kPadded, trials,
      [&](const sparse::SparseVectorView& v) {
        g_sink = linalg::scalar::sparse_dot<float>(v, dense);
      },
      [&](const sparse::SparseVectorView& v) {
        g_sink = linalg::vec::sparse_dot<float>(v, dense);
      });
  add_kernel_result(kernels, "sparse_dot", dot_times);

  const auto residual_times = time_kernel(
      dataset, Views::kPadded, trials,
      [&](const sparse::SparseVectorView& v) {
        g_sink = linalg::scalar::sparse_residual_dot<float>(v, target, dense);
      },
      [&](const sparse::SparseVectorView& v) {
        g_sink = linalg::vec::sparse_residual_dot<float>(v, target, dense);
      });
  add_kernel_result(kernels, "sparse_residual_dot", residual_times);

  std::vector<float> scattered = dense;
  const auto axpy_times = time_kernel(
      dataset, Views::kUnpadded, trials,
      [&](const sparse::SparseVectorView& v) {
        linalg::scalar::sparse_axpy<float>(1e-9, v, scattered);
      },
      [&](const sparse::SparseVectorView& v) {
        linalg::vec::sparse_axpy(1e-9, v, scattered);
      });
  g_sink = scattered[0];
  add_kernel_result(kernels, "sparse_axpy", axpy_times);

  // Dense reduction over the feature dimension.
  {
    const double n = static_cast<double>(dense.size());
    const int reps = 512;
    const auto [scalar_s, vec_s] = bench::best_of_pair(
        trials,
        [&] {
          for (int i = 0; i < reps; ++i) {
            g_sink = linalg::scalar::dot(dense, target);
          }
        },
        [&] {
          for (int i = 0; i < reps; ++i) g_sink = linalg::vec::dot(dense, target);
        });
    add_kernel_result(kernels, "dense_dot",
                      {1e9 / (n * reps) * scalar_s, 1e9 / (n * reps) * vec_s});
  }

  // The delta codec on one shared-vector-sized delta, per entry: encode into
  // a reused frame (block max-abs, quantize, transit hash) and decode
  // (dequantize), with the codec kernels on each backend.
  KernelTimes encode_times;
  KernelTimes decode_times;
  {
    std::vector<double> delta(dense.size());
    for (std::size_t i = 0; i < delta.size(); ++i) {
      delta[i] = 1e-3 * std::sin(static_cast<double>(i));
    }
    cluster::CompressedDelta frame;
    std::vector<double> decoded(delta.size());
    const auto encode = [&] { cluster::encode_delta(delta, frame); };
    const auto decode = [&] { cluster::decode_delta(frame, decoded); };
    // Each leg on both backends, in alternating trials.
    const auto time_leg = [&](const auto& leg) {
      constexpr int kReps = 64;
      const auto on = [&](linalg::KernelBackend backend) {
        return [&leg, backend] {
          linalg::set_kernel_backend(backend);
          for (int i = 0; i < kReps; ++i) leg();
        };
      };
      const auto [scalar_s, vec_s] =
          bench::best_of_pair(trials, on(linalg::KernelBackend::kScalar),
                              on(linalg::KernelBackend::kVectorized));
      const double per_entry =
          1e9 / (static_cast<double>(delta.size()) * kReps);
      return KernelTimes{per_entry * scalar_s, per_entry * vec_s};
    };
    const auto saved_backend = linalg::kernel_backend();
    encode_times = time_leg(encode);
    decode_times = time_leg(decode);
    linalg::set_kernel_backend(saved_backend);
    add_kernel_result(kernels, "delta_codec/encode", encode_times, "entry");
    add_kernel_result(kernels, "delta_codec/decode", decode_times, "entry");
  }

  bench::write_json_file(out_dir + "/BENCH_kernels.json", "kernels", kernels);

  // ---- epoch suite --------------------------------------------------------
  std::vector<bench::BenchResult> epochs;
  const core::RidgeProblem problem(dataset, 1e-3);
  const auto saved_backend = linalg::kernel_backend();

  {
    core::SeqScdSolver solver(problem, core::Formulation::kDual, 7);
    const auto epoch_on = [&](linalg::KernelBackend backend) {
      return [&solver, backend] {
        linalg::set_kernel_backend(backend);
        solver.run_epoch();
      };
    };
    const auto [scalar_s, vec_s] =
        bench::best_of_pair(trials, epoch_on(linalg::KernelBackend::kScalar),
                            epoch_on(linalg::KernelBackend::kVectorized));
    linalg::set_kernel_backend(saved_backend);
    epochs.push_back({"seq_epoch/scalar", scalar_s, "seconds", {}});
    epochs.push_back({"seq_epoch/vectorized", vec_s, "seconds",
                      {{"speedup_vs_scalar", scalar_s / vec_s}}});
    std::printf("seq_epoch                scalar %.4fs   vectorized %.4fs   "
                "%.2fx\n", scalar_s, vec_s, scalar_s / vec_s);
  }

  {
    core::ThreadedScdSolver solver(problem, core::Formulation::kDual, threads,
                                   core::CommitPolicy::kAtomicAdd, 7);
    const double pooled_s =
        bench::best_of(trials, [&] { solver.run_epoch(); });
    epochs.push_back({"threaded_epoch/pooled", pooled_s, "seconds",
                      {{"threads", static_cast<double>(threads)}}});
    std::printf("threaded_epoch (pooled)  %.4fs with %d threads\n", pooled_s,
                threads);

    // Replicated write-back: private per-thread replicas with periodic
    // merges, executed serially or on the pool as the cost model decides.
    core::ThreadedScdSolver replicated(problem, core::Formulation::kDual,
                                       threads, core::CommitPolicy::kReplicated,
                                       7);
    const double rep_s =
        bench::best_of(trials, [&] { replicated.run_epoch(); });
    epochs.push_back({"threaded_epoch/replicated", rep_s, "seconds",
                      {{"threads", static_cast<double>(threads)},
                       {"speedup_vs_atomic", pooled_s / rep_s}}});
    std::printf("threaded_epoch (replic.) %.4fs with %d threads (%.2fx vs "
                "atomic)\n", rep_s, threads, pooled_s / rep_s);
  }

  {
    std::vector<float> alpha(problem.num_coordinates(core::Formulation::kDual),
                             0.01F);
    std::vector<float> wbar(problem.shared_dim(core::Formulation::kDual),
                            0.0F);
    linalg::csr_matvec_transposed(dataset.by_row(), alpha, wbar);
    const double serial_s = bench::best_of(trials, [&] {
      g_sink = problem.dual_duality_gap(alpha, wbar);
    });
    util::ThreadPool pool(static_cast<std::size_t>(threads));
    const double pooled_s = bench::best_of(trials, [&] {
      g_sink = problem.dual_duality_gap(alpha, wbar, &pool);
    });
    epochs.push_back({"duality_gap/serial", serial_s, "seconds", {}});
    epochs.push_back({"duality_gap/pooled", pooled_s, "seconds",
                      {{"threads", static_cast<double>(threads)},
                       {"speedup_vs_serial", serial_s / pooled_s}}});
    std::printf("duality_gap              serial %.5fs   pooled %.5fs\n",
                serial_s, pooled_s);
  }

  {
    const int run_epochs = static_cast<int>(parser.get_int("epochs", 10));
    core::RunOptions every;
    every.max_epochs = run_epochs;
    every.target_gap = 0.0;
    core::RunOptions amortised = every;
    amortised.gap_every = 5;
    const double every_s = bench::best_of(1, [&] {
      core::SeqScdSolver solver(problem, core::Formulation::kDual, 7);
      core::run_solver(solver, problem, every);
    });
    const double amortised_s = bench::best_of(1, [&] {
      core::SeqScdSolver solver(problem, core::Formulation::kDual, 7);
      core::run_solver(solver, problem, amortised);
    });
    epochs.push_back({"run/gap_every_1", every_s, "seconds",
                      {{"epochs", static_cast<double>(run_epochs)}}});
    epochs.push_back({"run/gap_every_5", amortised_s, "seconds",
                      {{"epochs", static_cast<double>(run_epochs)},
                       {"speedup_vs_every_epoch", every_s / amortised_s}}});
    std::printf("run (%d epochs)          gap_every=1 %.4fs   gap_every=5 "
                "%.4fs   %.2fx\n", run_epochs, every_s, amortised_s,
                every_s / amortised_s);
  }

  bench::write_json_file(out_dir + "/BENCH_epoch.json", "epoch", epochs);
  std::printf("wrote %s/BENCH_kernels.json and %s/BENCH_epoch.json\n",
              out_dir.c_str(), out_dir.c_str());

  if (parser.get_bool("check")) {
    // The vectorized backend must not lose to the reference beyond `slack`
    // on any sparse kernel, nor on either leg of the delta codec.
    struct Check {
      const char* name;
      KernelTimes times;
    };
    const std::vector<Check> checks = {
        {"sparse_dot", dot_times},
        {"sparse_residual_dot", residual_times},
        {"sparse_axpy", axpy_times},
        {"delta_codec/encode", encode_times},
        {"delta_codec/decode", decode_times},
    };
    bool ok = true;
    for (const auto& c : checks) {
      if (c.times.vec_ns > c.times.scalar_ns * slack) {
        std::printf("CHECK FAILED: %s vectorized %.3f ns > scalar %.3f "
                    "* slack %.2f\n", c.name, c.times.vec_ns,
                    c.times.scalar_ns, slack);
        ok = false;
      }
    }
    if (!ok) return 2;
    std::printf("perf checks passed (slack %.2f)\n", slack);
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
