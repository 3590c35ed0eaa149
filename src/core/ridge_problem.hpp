// Ridge regression and its two sibling losses: objectives, closed-form
// coordinate updates, duality gap.
//
// Primal (paper eq. 1):   P(β) = 1/(2N)·||Aβ − y||² + λ/2·||β||²
// Dual   (paper eq. 3):   D(α) = −N/2·||α||² − 1/(2λ)·||Aᵀα||² + αᵀy
// Optimality maps (eqs. 5/6):  β* = (1/λ)Aᵀα*,  α* = (1/N)(y − Aβ*).
//
// The duality gap — |P − D| evaluated at the candidate pair induced by the
// current iterate — is the scale-free convergence metric used throughout the
// paper's evaluation.
//
// Sections I-II note that the same machinery solves "regression with elastic
// net regularization as well as support vector machines".  Both are a Loss
// of this class: only the closed-form coordinate step and the convergence
// measure switch on it, so every solver kind runs every loss unchanged.
//   * Loss{} — squared: ridge as above; primal or dual.
//   * Loss::elastic_net(η) — primal only, η ∈ [0, 1] (0 is ridge, bit for
//     bit; 1 is the lasso):
//       P(β) = 1/(2N)·||Aβ − y||² + λ·((1−η)/2·||β||² + η·||β||₁),
//     stepped by soft-thresholding (Friedman et al. [4]).  duality_gap
//     returns the max KKT violation at w = Aβ recomputed from β, 0 at the
//     optimum; a shared vector that drifted from Aβ cannot hide a bias.
//   * Loss::hinge() — the L2-regularised SVM by SDCA [9]; dual only, labels
//     ±1:
//       P(v) = λ/2·||v||² + 1/N·Σₙ max(0, 1 − yₙ⟨v, āₙ⟩)
//       D(α) = 1/N·Σₙ αₙ − λ/2·||v||²,   0 ≤ αₙ ≤ 1.
//     The weights are the *signed* dual βₙ = yₙαₙ, so the shared vector is
//     w̄ = Aᵀβ — the ridge dual's layout, which recompute_shared, asynchronous
//     drift and fp16 replicas all assume — and v = w̄/(λN).  duality_gap
//     returns |P(v) − D(α)|: drift can make the signed difference negative.
// The convergence measures of these two losses are evaluated serially (a
// pool is ignored).  ModelState::zeros rejects a formulation the loss lacks.
#pragma once

#include <span>
#include <vector>

#include "core/formulation.hpp"
#include "data/dataset.hpp"
#include "linalg/half.hpp"

namespace tpa::util {
class ThreadPool;
}

namespace tpa::core {

using data::Index;
using sparse::SparseVectorView;

enum class LossKind { kSquared, kElasticNet, kHinge };

/// The loss a RidgeProblem minimises; the default is the squared loss.
struct Loss {
  LossKind kind = LossKind::kSquared;
  double l1_ratio = 0.0;  // η, elastic net only

  static Loss elastic_net(double l1_ratio) {
    return {LossKind::kElasticNet, l1_ratio};
  }
  static Loss hinge() { return {LossKind::kHinge, 0.0}; }
};

class RidgeProblem {
 public:
  /// Binds a dataset, a finite regularisation strength λ > 0 and a loss.
  /// The dataset must outlive the problem.  Throws std::invalid_argument for
  /// a λ that is not positive and finite, an η outside [0, 1], hinge labels
  /// other than ±1, or an empty dataset.
  ///
  /// `global_examples` supports the distributed dual setting (Section IV):
  /// when the dataset is a by-example shard, the λN terms of the update rule
  /// and objective must use the *global* example count N, not the shard's.
  /// Zero (default) means "this dataset is the whole problem".
  explicit RidgeProblem(const data::Dataset& dataset, double lambda,
                        Index global_examples = 0, Loss loss = {});
  RidgeProblem(const data::Dataset& dataset, double lambda, Loss loss)
      : RidgeProblem(dataset, lambda, 0, loss) {}

  const data::Dataset& dataset() const noexcept { return *dataset_; }
  double lambda() const noexcept { return lambda_; }
  const Loss& loss() const noexcept { return loss_; }
  Index num_examples() const noexcept { return dataset_->num_examples(); }
  Index num_features() const noexcept { return dataset_->num_features(); }

  /// The N used in the update rules / objectives: the global example count
  /// for by-example shards, otherwise the dataset's own.
  Index effective_examples() const noexcept {
    return global_examples_ != 0 ? global_examples_ : num_examples();
  }

  /// Coordinates visited per epoch: M for the primal, N for the dual.
  Index num_coordinates(Formulation f) const noexcept;
  /// Dimension of the shared vector: N for the primal, M for the dual.
  Index shared_dim(Formulation f) const noexcept;

  /// The sparse vector of coordinate j: column a_m (primal) or row ā_n
  /// (dual).  Served from the dataset's bucketed layout: the view is padded
  /// to a multiple of 8 entries (padding repeats the last index with value
  /// 0, contributing exactly zero to every kernel) so the unrolled kernels
  /// never run a remainder loop.
  SparseVectorView coordinate_vector(Formulation f, Index j) const;

  /// The exact unpadded slice (true nnz) of coordinate j.
  SparseVectorView coordinate_vector_unpadded(Formulation f, Index j) const;
  /// ||a_m||² or ||ā_n||² (precomputed, double precision).
  double coordinate_squared_norm(Formulation f, Index j) const;

  /// Exact single-coordinate optimiser (paper eqs. 2 / 4): the closed-form
  /// Δ that minimises P (resp. maximises D) along coordinate j given the
  /// shared vector and the coordinate's current weight.  The Half overload
  /// reads an fp16-stored shared vector (DESIGN.md §16): its kernels widen
  /// each element to fp32 exactly, so the only difference from the float
  /// overload is the storage rounding already present in `shared`.
  double coordinate_delta(Formulation f, Index j,
                          std::span<const float> shared,
                          double weight_j) const;
  double coordinate_delta(Formulation f, Index j,
                          std::span<const linalg::Half> shared,
                          double weight_j) const;

  /// The closed form of eqs. (2) / (4) given coordinate j's inner product
  /// with the shared vector: `dot` is ⟨y − w, a_m⟩ (primal) or ⟨w̄, āₙ⟩
  /// (dual).  coordinate_delta evaluates `dot` with the kernel layer;
  /// TPA-SCD passes its block-reduced one.  The elastic net soft-thresholds
  /// the primal step; the hinge loss clips the dual one to the box and
  /// returns it signed, Δβₙ = yₙΔαₙ.
  double closed_form_delta(Formulation f, Index j, double dot,
                           double weight_j) const;

  /// P(β) with w = Aβ supplied by the caller (for the hinge loss, P(v) with
  /// w = Av).  A non-null `pool` evaluates the squared loss's partial sums
  /// in fixed-size chunks across the pool; the chunked combine order is
  /// deterministic (independent of thread count), within
  /// reduction-reassociation tolerance of the serial value (DESIGN.md §9).
  double primal_objective(std::span<const float> beta,
                          std::span<const float> w,
                          util::ThreadPool* pool = nullptr) const;
  /// D(α) with w̄ = Aᵀα supplied by the caller (for the hinge loss, `alpha`
  /// is the signed dual β).  Pool semantics as above.
  double dual_objective(std::span<const float> alpha,
                        std::span<const float> wbar,
                        util::ThreadPool* pool = nullptr) const;

  /// GP(β) = |P(β) − D((y − Aβ)/N)|; costs one pass over the matrix.  With a
  /// pool, the Aᵀα pass runs race-free over the column orientation and the
  /// objectives evaluate chunk-parallel, so the convergence check no longer
  /// gates training epochs on a serial matrix pass.
  double primal_duality_gap(std::span<const float> beta,
                            std::span<const float> w,
                            util::ThreadPool* pool = nullptr) const;
  /// GD(α) = |P(Aᵀα/λ) − D(α)|; costs one pass over the matrix.  Pool
  /// semantics as above (the Aβ pass parallelises over rows).
  double dual_duality_gap(std::span<const float> alpha,
                          std::span<const float> wbar,
                          util::ThreadPool* pool = nullptr) const;

  /// Dispatches to the gap matching `f` (weights/shared per formulation);
  /// for the elastic net, the max KKT violation over all coordinates, at
  /// w = Aβ recomputed from `weights` (`shared` is not read).
  double duality_gap(Formulation f, std::span<const float> weights,
                     std::span<const float> shared,
                     util::ThreadPool* pool = nullptr) const;

  /// β = (1/λ)·w̄  (eq. 5, given w̄ = Aᵀα); v = w̄/(λN) for the hinge loss.
  std::vector<float> primal_from_dual_shared(std::span<const float> wbar) const;
  /// α = (1/N)·(y − w)  (eq. 6, given w = Aβ).
  std::vector<float> dual_from_primal_shared(std::span<const float> w) const;

  /// ∂P/∂βₘ at (β, w = Aβ) of the squared loss — used by optimality tests.
  double primal_partial(Index m, std::span<const float> beta,
                        std::span<const float> w) const;
  /// ∂D/∂αₙ at (α, w̄ = Aᵀα) of the squared loss.
  double dual_partial(Index n, std::span<const float> alpha,
                      std::span<const float> wbar) const;

 private:
  const data::Dataset* dataset_;
  double lambda_;
  Index global_examples_ = 0;
  Loss loss_;
};

}  // namespace tpa::core
