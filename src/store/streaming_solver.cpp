#include "store/streaming_solver.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/seq_scd.hpp"
#include "core/threaded_scd.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace tpa::store {
namespace {

// A fixed master-seed split order is the whole determinism story: shard
// stream first, then one row stream per shard in index order.  Any change
// here invalidates existing checkpoints.
util::Rng master_rng(std::uint64_t seed) { return util::Rng(seed); }

}  // namespace

StreamingScdSolver::StreamingScdSolver(const StreamingDataset& source,
                                       StreamingConfig config)
    : source_(&source),
      config_(config),
      name_("Streaming-SCD (" + std::to_string(config.threads) +
            " thread" + (config.threads == 1 ? "" : "s") + ", " +
            std::to_string(source.num_shards()) + " shards)"),
      alpha_(static_cast<std::size_t>(source.rows()), 0.0F),
      shared_(static_cast<std::size_t>(source.cols()), 0.0F),
      shard_perm_([&] {
        if (!(config.lambda > 0.0) || !std::isfinite(config.lambda)) {
          throw std::invalid_argument(
              "StreamingScdSolver: lambda must be positive and finite");
        }
        if (config.threads <= 0) {
          throw std::invalid_argument(
              "StreamingScdSolver: threads must be positive");
        }
        core::checked_merge_every(config.merge_every, "StreamingScdSolver");
        if (source.num_shards() == 0 || source.rows() == 0 ||
            source.cols() == 0) {
          throw std::invalid_argument(
              "StreamingScdSolver: source must be non-empty");
        }
        util::Rng master = master_rng(config.seed);
        return util::EpochPermutation(source.num_shards(), master.split());
      }()),
      pipeline_(source, config.resident_shards, config.async_prefetch) {
  // Rebuild the master stream and consume the same first split the shard
  // permutation took, so row streams get splits 2, 3, … in shard order.
  util::Rng master = master_rng(config_.seed);
  (void)master.split();
  row_perms_.reserve(source.num_shards());
  for (std::size_t i = 0; i < source.num_shards(); ++i) {
    row_perms_.emplace_back(static_cast<std::size_t>(source.shard_rows(i)),
                            master.split());
  }
  if (config_.threads > 1) {
    // `threads` lanes share as many workers as the host runs at once; the
    // lane count alone fixes the trajectory.
    pool_ = std::make_unique<util::ThreadPool>(static_cast<std::size_t>(
        core::pool_dispatch().effective_threads(config_.threads)));
  }
}

void StreamingScdSolver::start_pass(std::size_t start_pos) {
  const auto shard_order = shard_perm_.next();
  order_.assign(shard_order.begin(), shard_order.end());
  pipeline_.begin_pass(order_, start_pos);
  pos_ = start_pos;
  pass_active_ = true;
}

void StreamingScdSolver::sweep_shard(const ResidentShard& shard) {
  obs::TraceSpan sweep("streaming_scd/sweep", obs::kCurrentThread,
                       static_cast<std::int64_t>(shard.shard));
  // The per-shard problem is a thin view (pointer + λ + global N); the λN
  // terms use the global example count exactly as the distributed
  // by-example shards do (RidgeProblem::effective_examples).
  const core::RidgeProblem problem(
      shard.dataset, config_.lambda,
      static_cast<core::Index>(source_->rows()));
  const auto order = row_perms_[shard.shard].next();
  const auto weights =
      std::span<float>(alpha_).subspan(
          static_cast<std::size_t>(shard.row_begin),
          static_cast<std::size_t>(shard.dataset.num_examples()));
  if (config_.threads > 1) {
    core::replicated_sweep(problem, core::Formulation::kDual, order, weights,
                           shared_, replicas_, config_.threads,
                           config_.merge_every, pool_.get());
  } else {
    core::scd_sweep(problem, core::Formulation::kDual, order, weights,
                    shared_);
  }
  swept_anything_ = true;
}

std::size_t StreamingScdSolver::run_shards(std::size_t max_shards) {
  const std::size_t num_shards = source_->num_shards();
  std::size_t done = 0;
  while (done < max_shards) {
    if (!pass_active_) start_pass(0);
    sweep_shard(pipeline_.acquire(pos_));
    ++pos_;
    ++done;
    if (pos_ == num_shards) {
      pipeline_.end_pass();
      pass_active_ = false;
      pos_ = 0;
      ++epochs_completed_;
      break;  // epoch boundary: callers re-enter for the next epoch
    }
  }
  return done;
}

core::EpochReport StreamingScdSolver::run_epoch() {
  const util::WallTimer timer;
  if (!pass_active_) start_pass(0);
  // Rows this call will sweep: a resumed epoch covers only its remainder.
  std::uint64_t updates = 0;
  for (std::size_t p = pos_; p < order_.size(); ++p) {
    updates += source_->shard_rows(order_[p]);
  }
  run_shards(source_->num_shards() - pos_);
  core::EpochReport report;
  report.coordinate_updates = updates;
  report.wall_seconds = timer.seconds();
  return report;
}

double StreamingScdSolver::duality_gap() {
  if (pass_active_) {
    throw std::logic_error(
        "StreamingScdSolver: duality_gap() mid-epoch (needs its own pass)");
  }
  const auto n = static_cast<double>(source_->rows());
  // β = w̄/λ, element order and arithmetic exactly as
  // RidgeProblem::primal_from_dual_shared.
  std::vector<float> beta(shared_.size());
  const double inv_lambda = 1.0 / config_.lambda;
  for (std::size_t i = 0; i < shared_.size(); ++i) {
    beta[i] = static_cast<float>(shared_[i] * inv_lambda);
  }

  // One identity-order pass: residual² and α·y accumulate into the
  // linalg::kSumChunk-row chunks of the global row range in global row
  // order, and the chunks combine in chunk order — linalg::chunked_sum's
  // sequence, merely split at shard boundaries.
  const std::size_t chunks =
      (alpha_.size() + linalg::kSumChunk - 1) / linalg::kSumChunk;
  std::vector<double> residual_sq(chunks, 0.0);
  std::vector<double> alpha_y(chunks, 0.0);
  std::vector<std::size_t> identity(source_->num_shards());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  pipeline_.begin_pass(std::move(identity));
  for (std::size_t s = 0; s < source_->num_shards(); ++s) {
    const ResidentShard& shard = pipeline_.acquire(s);
    const auto& matrix = shard.dataset.by_row();
    const auto labels = shard.dataset.labels();
    std::vector<float> w(static_cast<std::size_t>(matrix.rows()));
    linalg::csr_matvec(matrix, beta, w);
    for (std::size_t i = 0; i < w.size(); ++i) {
      const auto row = static_cast<std::size_t>(shard.row_begin) + i;
      const double r = static_cast<double>(w[i]) - labels[i];
      residual_sq[row / linalg::kSumChunk] += r * r;
      alpha_y[row / linalg::kSumChunk] +=
          static_cast<double>(alpha_[row]) * labels[i];
    }
  }
  pipeline_.end_pass();
  const double primal =
      std::accumulate(residual_sq.begin(), residual_sq.end(), 0.0) /
          (2.0 * n) +
      0.5 * config_.lambda * linalg::chunked_squared_norm(beta);
  const double alpha_sq = linalg::chunked_squared_norm(alpha_);
  const double wbar_sq = linalg::chunked_squared_norm(shared_);
  const double dual = -0.5 * n * alpha_sq -
                      wbar_sq / (2.0 * config_.lambda) +
                      std::accumulate(alpha_y.begin(), alpha_y.end(), 0.0);
  return std::abs(primal - dual);
}

void StreamingScdSolver::resume(int epochs, std::size_t shards_done,
                                std::vector<float> alpha,
                                std::vector<float> shared) {
  if (swept_anything_ || pass_active_) {
    throw std::logic_error(
        "StreamingScdSolver: resume() on a solver that already swept");
  }
  if (epochs < 0 || shards_done >= source_->num_shards() + 1 ||
      alpha.size() != alpha_.size() || shared.size() != shared_.size()) {
    throw std::invalid_argument("StreamingScdSolver: bad resume state");
  }
  alpha_ = std::move(alpha);
  shared_ = std::move(shared);
  epochs_completed_ = epochs;

  // Realign every permutation stream to its consumed-draw count: the shard
  // stream has drawn `epochs` orders (plus the in-progress one, redrawn
  // below), each row stream `epochs` orders plus one more per shard already
  // visited this epoch.
  shard_perm_.skip(epochs);
  for (auto& perm : row_perms_) perm.skip(epochs);
  if (shards_done > 0) {
    start_pass(shards_done);
    for (std::size_t p = 0; p < shards_done; ++p) {
      row_perms_[order_[p]].skip(1);
    }
  }
}

StreamingCheckpoint make_checkpoint(const StreamingScdSolver& solver) {
  StreamingCheckpoint checkpoint;
  checkpoint.epoch = static_cast<std::uint64_t>(solver.epochs_completed());
  checkpoint.shards_done = solver.shards_done();
  checkpoint.seed = solver.config().seed;
  checkpoint.threads = static_cast<std::uint64_t>(solver.config().threads);
  checkpoint.rows = solver.source().rows();
  checkpoint.cols = solver.source().cols();
  checkpoint.shards = solver.source().num_shards();
  checkpoint.lambda = solver.config().lambda;
  checkpoint.alpha.assign(solver.alpha().begin(), solver.alpha().end());
  checkpoint.shared.assign(solver.shared().begin(), solver.shared().end());
  return checkpoint;
}

core::ConvergenceTrace run_streaming(StreamingScdSolver& solver,
                                     const core::RunOptions& options,
                                     const CheckpointOptions& checkpoint) {
  const bool shard_checkpoints =
      !checkpoint.path.empty() && checkpoint.every_shards > 0;
  const auto epoch = [&](int, core::ConvergenceTrace&) {
    if (!shard_checkpoints) return solver.run_epoch();
    const util::WallTimer timer;
    core::EpochReport chunked;
    do {
      solver.run_shards(checkpoint.every_shards);
      write_checkpoint_file(checkpoint.path, make_checkpoint(solver));
    } while (solver.mid_epoch());
    chunked.coordinate_updates = solver.source().rows();
    chunked.wall_seconds = timer.seconds();
    return chunked;
  };
  auto trace = core::run_loop(
      options, {.epochs_done = solver.epochs_completed()}, epoch,
      [&](util::ThreadPool*) { return solver.duality_gap(); });
  if (!checkpoint.path.empty() && !shard_checkpoints && !trace.diverged()) {
    write_checkpoint_file(checkpoint.path, make_checkpoint(solver));
  }
  return trace;
}

}  // namespace tpa::store
