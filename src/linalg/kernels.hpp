// The kernel layer: two interchangeable implementations of every hot-loop
// primitive, selected at runtime.
//
//   linalg::scalar — the original straight-line loops with one accumulator.
//     This is the numerical *reference*: strict left-to-right accumulation,
//     bit-identical to the pre-kernel-layer code.  It stays selectable so
//     any result can be reproduced exactly and regressions can be bisected
//     to "kernel" vs "algorithm".
//
//   linalg::vec — 4/8-way multi-accumulator versions of the same kernels.
//     A single running sum serializes on the FP add latency (4-5 cycles on
//     current x86); four independent double accumulators break that chain so
//     the loop retires one fused load-convert-multiply-add per cycle and the
//     compiler is free to turn the unrolled bodies into packed SIMD.
//     Element-wise kernels perform exactly the same per-element operations
//     as the scalar reference — only reductions reassociate, so only
//     reductions may differ, and then only in the last ULPs of the double
//     accumulator (see DESIGN.md §9 for the tolerance contract).  The fp32
//     axpy, the sparse_axpy scatter and the fp32 add_diff have no vec body:
//     unrolled, they measured no faster than the plain loop, so both
//     backends run the scalar one.
//
// The shared-vector kernels are templates over the storage type T of the
// shared vector: float, or Half for fp16 storage (DESIGN.md §16).  Each body
// is explicitly instantiated for both types in kernels.cpp, the one
// translation unit built with -ffp-contract=off and the native ISA.  A Half
// element widens to fp32 exactly before any arithmetic, accumulation stays
// fp64, and a Half store narrows with RNE: the storage type is the only
// difference between the two instantiations.
//
// The public entry points in vector_ops.hpp dispatch on kernel_backend();
// the default is kVectorized, overridable with TPA_KERNELS=scalar in the
// environment or set_kernel_backend() in code.
#pragma once

#include <span>

#include "linalg/half.hpp"
#include "sparse/csr.hpp"

namespace tpa::linalg {

using sparse::SparseVectorView;

enum class KernelBackend {
  kScalar,      // reference single-accumulator loops
  kVectorized,  // multi-accumulator / SIMD-friendly loops
};

/// Currently selected backend.  Initialised once from the TPA_KERNELS
/// environment variable ("scalar" or "vectorized"/"vec"); defaults to
/// kVectorized.
KernelBackend kernel_backend() noexcept;

/// Overrides the backend at runtime (tests, benchmarks, bisection).
void set_kernel_backend(KernelBackend backend) noexcept;

const char* kernel_backend_name(KernelBackend backend) noexcept;

/// True when the kernels TU was compiled for the build host's ISA
/// (TPA_KERNEL_NATIVE in CMakeLists.txt), i.e. the vectorized backend may be
/// using packed SIMD / hardware gathers.  Exported into bench and run-report
/// metadata so perf numbers are attributable to a build configuration.
bool kernel_native_build() noexcept;

namespace scalar {

double dot(std::span<const float> x, std::span<const float> y);
double dot(std::span<const double> x, std::span<const double> y);
void axpy(double alpha, std::span<const float> x, std::span<float> y);
void axpy(double alpha, std::span<const double> x, std::span<double> y);
template <typename T>
double sparse_dot(const SparseVectorView& a, std::span<const T> dense);
template <typename T>
double sparse_residual_dot(const SparseVectorView& a,
                           std::span<const float> target,
                           std::span<const T> dense);
template <typename T>
void sparse_axpy(double alpha, const SparseVectorView& a, std::span<T> dense);
template <typename T>
void add_diff(std::span<float> w, std::span<const T> replica,
              std::span<const T> base);

}  // namespace scalar

namespace vec {

double dot(std::span<const float> x, std::span<const float> y);
double dot(std::span<const double> x, std::span<const double> y);
void axpy(double alpha, std::span<const double> x, std::span<double> y);
template <typename T>
double sparse_dot(const SparseVectorView& a, std::span<const T> dense);
template <typename T>
double sparse_residual_dot(const SparseVectorView& a,
                           std::span<const float> target,
                           std::span<const T> dense);
// F16C conversion lanes over fp16 replicas; the remainder is the scalar body.
void add_diff(std::span<float> w, std::span<const Half> replica,
              std::span<const Half> base);

}  // namespace vec

}  // namespace tpa::linalg
