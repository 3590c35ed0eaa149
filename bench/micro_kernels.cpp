// Google-benchmark microbenchmarks for the hot kernels underlying every
// solver: sparse inner products, scatter updates, the coordinate update
// itself, the simulated block reduction, and one full epoch of each engine.
// These are *wall-clock* measurements on the host machine (unlike the
// figure harnesses, which report simulated device time); they support the
// DESIGN.md §5 calibration of seconds-per-nonzero.
#include <benchmark/benchmark.h>

#include "core/convergence.hpp"
#include "core/replica_set.hpp"
#include "core/round_engine.hpp"
#include "core/seq_scd.hpp"
#include "core/threaded_scd.hpp"
#include "data/generators.hpp"
#include "gpusim/block_context.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "serve/scorer.hpp"
#include "util/permutation.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace tpa;

const data::Dataset& bench_dataset() {
  static const data::Dataset dataset = [] {
    data::WebspamLikeConfig config;
    config.num_examples = 4096;
    config.num_features = 8192;
    return data::make_webspam_like(config);
  }();
  return dataset;
}

// Backend argument for the kernel benchmarks: 0 = scalar reference,
// 1 = vectorized multi-accumulator.
linalg::KernelBackend backend_arg(const benchmark::State& state) {
  return state.range(0) == 0 ? linalg::KernelBackend::kScalar
                             : linalg::KernelBackend::kVectorized;
}

void BM_SparseDot(benchmark::State& state) {
  const auto& dataset = bench_dataset();
  const auto backend = backend_arg(state);
  std::vector<float> dense(dataset.num_features(), 1.5F);
  sparse::Index row = 0;
  std::uint64_t entries = 0;
  for (auto _ : state) {
    const auto view = dataset.by_row().row(row);
    benchmark::DoNotOptimize(
        backend == linalg::KernelBackend::kScalar
            ? linalg::scalar::sparse_dot<float>(view, dense)
            : linalg::vec::sparse_dot<float>(view, dense));
    entries += view.nnz();
    row = (row + 1) % dataset.num_examples();
  }
  state.counters["nnz/s"] = benchmark::Counter(
      static_cast<double>(entries), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SparseDot)->Arg(0)->Arg(1)->ArgName("vec");

// Same kernel over the bucketed padded views: aligned starts, no remainder
// iterations.  Compare against BM_SparseDot/vec:1 to see the layout's
// contribution alone.
void BM_SparseDotBucketed(benchmark::State& state) {
  const auto& dataset = bench_dataset();
  std::vector<float> dense(dataset.num_features(), 1.5F);
  sparse::Index row = 0;
  std::uint64_t entries = 0;
  for (auto _ : state) {
    const auto view = dataset.bucketed_rows().padded(row);
    benchmark::DoNotOptimize(linalg::vec::sparse_dot<float>(view, dense));
    entries += view.nnz();
    row = (row + 1) % dataset.num_examples();
  }
  state.counters["nnz/s"] = benchmark::Counter(
      static_cast<double>(entries), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SparseDotBucketed);

void BM_SparseAxpy(benchmark::State& state) {
  const auto& dataset = bench_dataset();
  const auto backend = backend_arg(state);
  std::vector<float> dense(dataset.num_features(), 0.0F);
  sparse::Index row = 0;
  std::uint64_t entries = 0;
  for (auto _ : state) {
    const auto view = dataset.by_row().row(row);
    if (backend == linalg::KernelBackend::kScalar) {
      linalg::scalar::sparse_axpy<float>(0.001, view, dense);
    } else {
      linalg::vec::sparse_axpy(0.001, view, dense);
    }
    benchmark::DoNotOptimize(dense.data());
    benchmark::ClobberMemory();
    entries += view.nnz();
    row = (row + 1) % dataset.num_examples();
  }
  state.counters["nnz/s"] = benchmark::Counter(
      static_cast<double>(entries), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SparseAxpy)->Arg(0)->Arg(1)->ArgName("vec");

void BM_CoordinateDelta(benchmark::State& state) {
  const auto& dataset = bench_dataset();
  const core::RidgeProblem problem(dataset, 1e-3);
  std::vector<float> shared(dataset.num_features(), 0.1F);
  sparse::Index row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.coordinate_delta(
        core::Formulation::kDual, row, shared, 0.0));
    row = (row + 1) % dataset.num_examples();
  }
}
BENCHMARK(BM_CoordinateDelta);

void BM_BlockReduce(benchmark::State& state) {
  gpusim::BlockContext block(static_cast<int>(state.range(0)));
  const std::size_t count = 4096;
  std::vector<float> terms(count);
  for (std::size_t i = 0; i < count; ++i) {
    terms[i] = static_cast<float>(i % 17) * 0.25F;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.strided_reduce(
        count, [&](std::size_t i) { return terms[i]; }));
  }
}
BENCHMARK(BM_BlockReduce)->Arg(32)->Arg(128)->Arg(512);

void BM_CsrMatvec(benchmark::State& state) {
  const auto& dataset = bench_dataset();
  std::vector<float> x(dataset.num_features(), 0.5F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::csr_matvec(dataset.by_row(), x));
  }
  state.counters["nnz/s"] = benchmark::Counter(
      static_cast<double>(dataset.nnz()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CsrMatvec);

// ThreadPool::parallel_for scheduling: grain 1 reproduces the legacy
// task-per-index dispatch (one queue push + mutex round-trip per element);
// grain 0 is the chunked default (ceil(count/workers) elements per task).
// The body is a cheap FMA so the measurement is dominated by scheduling
// overhead — the quantity the chunked satellite exists to remove.
void BM_ParallelForScheduling(benchmark::State& state) {
  util::ThreadPool pool(8);
  const std::size_t count = 1 << 14;
  const auto grain = static_cast<std::size_t>(state.range(0));
  std::vector<float> out(count, 0.0F);
  for (auto _ : state) {
    pool.parallel_for(
        count,
        [&out](std::size_t i) {
          out[i] = out[i] * 0.5F + static_cast<float>(i);
        },
        grain);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["elems/s"] = benchmark::Counter(
      static_cast<double>(count) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelForScheduling)
    ->Arg(1)      // before: task per index
    ->Arg(64)     // explicit medium grain
    ->Arg(0)      // after: one chunk per worker
    ->ArgName("grain");

// Round-trip latency of one tiny parallel_for round, repeated back to back —
// the dispatch pattern the replicated solver's merge intervals produce.  The
// argument is the pool's spin budget: 0 parks on the condition variable
// immediately (futex sleep/wake per round); the spin-then-park budget keeps
// workers hot between rounds.
void BM_PoolWakeup(benchmark::State& state) {
  util::ThreadPool pool(4, static_cast<std::size_t>(state.range(0)));
  std::vector<float> out(256, 0.0F);
  for (auto _ : state) {
    pool.parallel_for(
        out.size(),
        [&out](std::size_t i) { out[i] += 1.0F; },
        out.size() / pool.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["rounds/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PoolWakeup)
    ->Arg(0)      // park immediately
    ->Arg(2048)   // spin-then-park (the multi-core default budget)
    ->ArgName("spin");

// ReplicaSet::merge_into: fused diff-add of every replica against the
// pre-round base plus the replica reseed.  The argument is the replica
// count; per-merge cost should scale as (replicas + 1) dense passes.
void BM_ReplicaMerge(benchmark::State& state) {
  const std::size_t dim = 1 << 16;
  const auto count = static_cast<std::size_t>(state.range(0));
  core::ReplicaSet replicas;
  replicas.configure(dim, count);
  std::vector<float> global(dim, 0.5F);
  replicas.reset_from(global);
  for (auto _ : state) {
    replicas.merge_into(global);
    benchmark::DoNotOptimize(global.data());
  }
  state.counters["entries/s"] = benchmark::Counter(
      static_cast<double>(dim * count) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReplicaMerge)->Arg(1)->Arg(4)->Arg(8)->ArgName("replicas");

// The serving scorer's whole-matrix path: chunked parallel_for over rows.
void BM_ScoreMatrix(benchmark::State& state) {
  const auto& dataset = bench_dataset();
  std::vector<float> beta(dataset.num_features(), 0.25F);
  serve::ServableModel model;
  model.beta = std::move(beta);
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::score_matrix(pool, dataset.by_row(), model));
  }
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(dataset.num_examples()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScoreMatrix)->Arg(1)->Arg(4)->Arg(8)->ArgName("threads");

void BM_SeqScdEpoch(benchmark::State& state) {
  const auto& dataset = bench_dataset();
  const core::RidgeProblem problem(dataset, 1e-3);
  core::SeqScdSolver solver(problem, core::Formulation::kDual, 7);
  const auto saved = linalg::kernel_backend();
  linalg::set_kernel_backend(backend_arg(state));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.run_epoch());
  }
  linalg::set_kernel_backend(saved);
  // Wall seconds per nonzero: the measured counterpart of the CpuCostModel
  // constant (DESIGN.md §5).
  state.counters["ns/nnz"] = benchmark::Counter(
      1e9 * static_cast<double>(state.iterations()) *
          static_cast<double>(dataset.nnz()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SeqScdEpoch)->Arg(0)->Arg(1)->ArgName("vec");

// One epoch of the pool-backed threaded solver: the persistent workers are
// reused across iterations, so this measures steady-state scheduling, not
// thread spawn.
void BM_ThreadedScdEpoch(benchmark::State& state) {
  const auto& dataset = bench_dataset();
  const core::RidgeProblem problem(dataset, 1e-3);
  core::ThreadedScdSolver solver(problem, core::Formulation::kDual,
                                 static_cast<int>(state.range(0)),
                                 core::CommitPolicy::kAtomicAdd, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.run_epoch());
  }
  state.counters["ns/nnz"] = benchmark::Counter(
      1e9 * static_cast<double>(state.iterations()) *
          static_cast<double>(dataset.nnz()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ThreadedScdEpoch)->Arg(1)->Arg(4)->ArgName("threads");

// Full duality-gap evaluation (one matrix pass + objectives), serial vs
// pooled — the quantity `gap_every` amortises and `gap_threads` parallelises.
void BM_DualityGap(benchmark::State& state) {
  const auto& dataset = bench_dataset();
  const core::RidgeProblem problem(dataset, 1e-3);
  std::vector<float> alpha(problem.num_coordinates(core::Formulation::kDual),
                           0.01F);
  std::vector<float> wbar(problem.shared_dim(core::Formulation::kDual), 0.0F);
  linalg::csr_matvec_transposed(dataset.by_row(), alpha, wbar);
  const auto threads = static_cast<std::size_t>(state.range(0));
  util::ThreadPool pool(threads);
  util::ThreadPool* gap_pool = threads > 1 ? &pool : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.dual_duality_gap(alpha, wbar, gap_pool));
  }
  state.counters["nnz/s"] = benchmark::Counter(
      static_cast<double>(dataset.nnz()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DualityGap)->Arg(1)->Arg(4)->ArgName("threads");

void BM_AsyncEngineEpoch(benchmark::State& state) {
  const auto& dataset = bench_dataset();
  const core::RidgeProblem problem(dataset, 1e-3);
  const auto f = core::Formulation::kDual;
  core::AsyncEngine engine(static_cast<std::size_t>(state.range(0)),
                           core::CommitPolicy::kAtomicAdd);
  std::vector<float> weights(problem.num_coordinates(f), 0.0F);
  std::vector<float> shared(problem.shared_dim(f), 0.0F);
  util::Rng rng(3);
  auto order = util::random_permutation(problem.num_coordinates(f), rng);
  for (auto _ : state) {
    engine.run_epoch(
        order,
        [&](sparse::Index j, std::span<const float> s) {
          return problem.coordinate_delta(f, j, s, weights[j]);
        },
        [&](sparse::Index j) {
          return problem.coordinate_vector_unpadded(f, j);
        },
        [&](sparse::Index j, double delta) {
          weights[j] = static_cast<float>(weights[j] + delta);
        },
        shared);
  }
}
BENCHMARK(BM_AsyncEngineEpoch)->Arg(1)->Arg(16)->Arg(48);

}  // namespace

BENCHMARK_MAIN();
