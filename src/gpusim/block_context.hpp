// Intra-thread-block execution semantics of TPA-SCD (Algorithm 2).
//
// Inside one thread block the paper distributes the partial inner product
// across `nthreads` threads in a strided loop, caches the per-thread partial
// sums in shared memory, and combines them with a log2(nthreads) tree
// reduction under __syncthreads() barriers.  All of this happens in 32-bit
// floats, so the *summation order* differs from a sequential CPU loop.  The
// BlockContext reproduces that exact order, which is what the gpusim unit
// tests verify against a double-precision reference.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace tpa::gpusim {

class BlockContext {
 public:
  /// `num_threads` must be a power of two (warp-multiple in practice).
  /// Throws std::invalid_argument otherwise.
  explicit BlockContext(int num_threads);

  int num_threads() const noexcept { return num_threads_; }

  /// Emulates the strided accumulation + shared-memory tree reduction:
  /// thread u sums term(i) for i = u, u+T, u+2T, ... < count into a float,
  /// then the partial sums are pairwise-reduced as on the GPU.
  /// Returns the float result (promoted to double for the caller).
  double strided_reduce(std::size_t count,
                        const std::function<float(std::size_t)>& term);

 private:
  int num_threads_;
  std::vector<float> shared_cache_;  // models the block's shared memory
};

}  // namespace tpa::gpusim
