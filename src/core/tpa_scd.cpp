#include "core/tpa_scd.hpp"

#include "core/cost_model.hpp"
#include "core/threaded_scd.hpp"
#include "linalg/half.hpp"

namespace tpa::core {
namespace {

gpusim::EpochWorkload make_workload(const RidgeProblem& problem,
                                    Formulation f) {
  const auto timing = TimingWorkload::for_dataset(problem.dataset(), f);
  gpusim::EpochWorkload w;
  w.nnz = timing.nnz;
  w.num_coordinates = timing.num_coordinates;
  w.shared_dim = timing.shared_dim;
  return w;
}

}  // namespace

TpaScdSolver::TpaScdSolver(const RidgeProblem& problem, Formulation f,
                           std::uint64_t seed, TpaScdOptions options)
    : Solver(problem, f, seed, "TPA-SCD (" + options.device.name + ")",
             "tpa_scd/shuffle", "tpa_scd/sweep"),
      options_(options),
      engine_(static_cast<std::size_t>(
                  options.async_window_override > 0
                      ? options.async_window_override
                      : options.device.async_staleness()),
              CommitPolicy::kAtomicAdd),
      block_(options.device.threads_per_block),
      timing_(options.device),
      memory_(options.device),
      workload_(make_workload(problem, f)) {
  checked_merge_every(options_.merge_every, "TpaScdSolver");
  // "The dataset ... is transferred into the GPU memory once at the
  // beginning of operation and does not move" (paper Section V.A).
  const auto& dataset = problem.dataset();
  std::size_t data_bytes = dataset.memory_bytes();
  if (options_.charge_paper_scale_memory &&
      dataset.paper_scale().has_value()) {
    // 8 bytes per stored entry (4 B value + 4 B index), as in Section III.D.
    data_bytes = static_cast<std::size_t>(dataset.paper_scale()->nnz) * 8;
  }
  const std::size_t vector_bytes =
      (state().weights.size() + state().shared.size()) * sizeof(float);
  memory_.allocate(data_bytes + vector_bytes);
  setup_sim_seconds_ =
      memory_.upload_seconds(data_bytes + vector_bytes, options_.pcie,
                             /*pinned=*/true);
}

double TpaScdSolver::sweep(std::span<const std::uint32_t> order) {
  const auto labels = problem().dataset().labels();
  auto& state = mutable_state();
  // The thread-block body of Algorithm 2: strided partial inner product
  // in 32-bit floats, shared-memory tree reduction, then thread 0's
  // closed-form delta.  The batched write-back may hand it an fp16 replica,
  // whose elements widen exactly, so only the storage rounding differs.
  const bool primal = formulation() == Formulation::kPrimal;
  const auto block_step = [&](sparse::Index j, auto shared, double weight_j) {
    const auto vec = problem().coordinate_vector(formulation(), j);
    const double dot = block_.strided_reduce(vec.nnz(), [&](std::size_t k) {
      const auto i = vec.indices[k];
      const float s = linalg::to_float(shared[i]);
      return (primal ? labels[i] - s : s) * vec.values[k];
    });
    return problem().closed_form_delta(formulation(), j, dot, weight_j);
  };
  if (options_.merge_every > 0) {
    // Batched write-back: the resident blocks are the lanes of the CPU
    // replicated solver's sweep, folded every merge_every updates per lane.
    // With hundreds of resident blocks the concurrent staleness is large
    // even at merge_every=1, so the damping factor matters here more than
    // on the CPU paths.
    replicated_sweep(problem(), formulation(), order, state.weights,
                     state.shared, replicas_,
                     static_cast<int>(engine_.window()), options_.merge_every,
                     /*pool=*/nullptr, block_step);
  } else {
    engine_.run_epoch(
        order,
        [&](sparse::Index j, std::span<const float> shared) {
          return block_step(j, shared, state.weights[j]);
        },
        [this](sparse::Index j) {
          return problem().coordinate_vector_unpadded(formulation(), j);
        },
        [&](sparse::Index j, double delta) {
          state.weights[j] = static_cast<float>(state.weights[j] + delta);
        },
        state.shared);
  }

  // The bandwidth model prices the shared-vector traffic at the storage
  // width the epoch actually ran with: the replicas' precision, which the
  // sweep picked from the process-wide mode; the atomic-commit path is
  // always fp32 (float atomics have no 16-bit form).
  workload_.shared_value_bytes =
      options_.merge_every > 0
          ? static_cast<std::uint32_t>(
                linalg::shared_value_bytes(replicas_.precision()))
          : 4U;
  return timing_.epoch_seconds(workload_);
}

}  // namespace tpa::core
