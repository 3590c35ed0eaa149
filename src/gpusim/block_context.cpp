#include "gpusim/block_context.hpp"

#include <stdexcept>

namespace tpa::gpusim {

BlockContext::BlockContext(int num_threads) : num_threads_(num_threads) {
  if (num_threads <= 0 || (num_threads & (num_threads - 1)) != 0) {
    throw std::invalid_argument(
        "BlockContext: num_threads must be a positive power of two");
  }
  shared_cache_.resize(static_cast<std::size_t>(num_threads), 0.0F);
}

double BlockContext::strided_reduce(
    std::size_t count, const std::function<float(std::size_t)>& term) {
  const auto threads = static_cast<std::size_t>(num_threads_);
  // Phase 1: per-thread strided partial sums (float accumulation, exactly as
  // the dpu register accumulates on the GPU).
  for (std::size_t u = 0; u < threads; ++u) {
    float partial = 0.0F;
    for (std::size_t i = u; i < count; i += threads) {
      partial += term(i);
    }
    shared_cache_[u] = partial;
  }
  // Phase 2: tree reduction with implicit __syncthreads() between levels.
  // Note Algorithm 2 in the paper prints `cache[u] = cache[u+v]`; the
  // intended (and implemented) operation is the accumulate `+=`.
  for (std::size_t v = threads / 2; v != 0; v /= 2) {
    for (std::size_t u = 0; u < v; ++u) {
      shared_cache_[u] += shared_cache_[u + v];
    }
  }
  return static_cast<double>(shared_cache_[0]);
}

}  // namespace tpa::gpusim
