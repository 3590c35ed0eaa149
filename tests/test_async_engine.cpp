// The deterministic asynchrony model: window semantics, atomic vs
// last-writer-wins commits, staleness, and loss accounting.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>

#include "core/round_engine.hpp"
#include "core/seq_scd.hpp"
#include "data/generators.hpp"
#include "linalg/vector_ops.hpp"
#include "util/permutation.hpp"

namespace tpa::core {
namespace {

using sparse::Index;
using sparse::SparseVectorView;

/// A fixture problem where every "coordinate" j writes +1 to a chosen set of
/// shared entries, so commit accounting is exact.
struct ScatterFixture {
  std::vector<std::vector<Index>> patterns;
  std::vector<std::vector<float>> ones;

  explicit ScatterFixture(std::vector<std::vector<Index>> p)
      : patterns(std::move(p)) {
    for (const auto& pattern : patterns) {
      ones.emplace_back(pattern.size(), 1.0F);
    }
  }

  SparseVectorView view(Index j) const {
    return SparseVectorView{patterns[j], ones[j]};
  }
};

TEST(AsyncEngine, RejectsZeroWindow) {
  EXPECT_THROW(AsyncEngine(0, CommitPolicy::kAtomicAdd),
               std::invalid_argument);
}

// With one lane in flight nothing races, under either commit policy: the
// engine is the hand-rolled sequential pass, scatter for scatter.
TEST(AsyncEngine, WindowOneIsExactlySequential) {
  data::WebspamLikeConfig config;
  config.num_examples = 128;
  config.num_features = 64;
  const auto dataset = data::make_webspam_like(config);
  const RidgeProblem problem(dataset, 0.01);
  const auto f = Formulation::kDual;
  util::Rng rng(9);
  const auto order = util::random_permutation(problem.num_coordinates(f),
                                              rng);

  // Hand-rolled sequential pass over the order.
  std::vector<float> ref_weights(problem.num_coordinates(f), 0.0F);
  std::vector<float> ref_shared(problem.shared_dim(f), 0.0F);
  for (const auto j : order) {
    const double delta =
        problem.coordinate_delta(f, j, ref_shared, ref_weights[j]);
    ref_weights[j] = static_cast<float>(ref_weights[j] + delta);
    linalg::sparse_axpy(delta, problem.coordinate_vector_unpadded(f, j),
                        ref_shared);
  }

  for (const auto policy :
       {CommitPolicy::kAtomicAdd, CommitPolicy::kLastWriterWins}) {
    AsyncEngine engine(1, policy);
    std::vector<float> weights(problem.num_coordinates(f), 0.0F);
    std::vector<float> shared(problem.shared_dim(f), 0.0F);
    const auto stats = engine.run_epoch(
        order,
        [&](Index j, std::span<const float> s) {
          return problem.coordinate_delta(f, j, s, weights[j]);
        },
        [&](Index j) { return problem.coordinate_vector_unpadded(f, j); },
        [&](Index j, double delta) {
          weights[j] = static_cast<float>(weights[j] + delta);
        },
        shared);
    EXPECT_EQ(stats.lost_entries, 0u);
    for (std::size_t i = 0; i < shared.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(shared[i]),
                std::bit_cast<std::uint32_t>(ref_shared[i]))
          << "entry " << i;
    }
    for (std::size_t j = 0; j < weights.size(); ++j) {
      EXPECT_EQ(weights[j], ref_weights[j]) << "weight " << j;
    }
  }
}

TEST(AsyncEngine, AtomicCommitPreservesEveryContribution) {
  // Three coordinates all write entry 0; under atomic commits the final
  // value must be the sum of all deltas regardless of the window.
  const ScatterFixture fixture({{0}, {0}, {0}});
  for (const std::size_t window : {1u, 2u, 3u, 8u}) {
    AsyncEngine engine(window, CommitPolicy::kAtomicAdd);
    std::vector<float> shared{0.0F};
    const std::vector<std::uint32_t> order{0, 1, 2};
    const auto stats = engine.run_epoch(
        order, [](Index, std::span<const float>) { return 1.0; },
        [&](Index j) { return fixture.view(j); },
        [](Index, double) {}, shared);
    EXPECT_FLOAT_EQ(shared[0], 3.0F) << "window " << window;
    EXPECT_EQ(stats.updates, 3u);
    EXPECT_EQ(stats.committed_entries, 3u);
    EXPECT_EQ(stats.lost_entries, 0u);
  }
}

TEST(AsyncEngine, WildCommitLosesRacingUpdates) {
  // Same three colliding coordinates: with a window wider than one, the
  // non-atomic read-modify-write store erases racing contributions.
  const ScatterFixture fixture({{0}, {0}, {0}});
  AsyncEngine engine(3, CommitPolicy::kLastWriterWins);
  std::vector<float> shared{0.0F};
  const std::vector<std::uint32_t> order{0, 1, 2};
  const auto stats = engine.run_epoch(
      order, [](Index, std::span<const float>) { return 1.0; },
      [&](Index j) { return fixture.view(j); },
      [](Index, double) {}, shared);
  // All three read 0 before any commit landed; the last store wins.
  EXPECT_FLOAT_EQ(shared[0], 1.0F);
  EXPECT_EQ(stats.lost_entries, 2u);
  EXPECT_EQ(stats.committed_entries, 1u);
}

TEST(AsyncEngine, WildCommitIsLosslessOnDisjointPatterns) {
  const ScatterFixture fixture({{0}, {1}, {2}});
  AsyncEngine engine(3, CommitPolicy::kLastWriterWins);
  std::vector<float> shared{0.0F, 0.0F, 0.0F};
  const std::vector<std::uint32_t> order{0, 1, 2};
  const auto stats = engine.run_epoch(
      order, [](Index, std::span<const float>) { return 2.0; },
      [&](Index j) { return fixture.view(j); },
      [](Index, double) {}, shared);
  EXPECT_EQ(stats.lost_entries, 0u);
  for (const auto v : shared) EXPECT_FLOAT_EQ(v, 2.0F);
}

TEST(AsyncEngine, StalenessHidesInFlightUpdates) {
  // Two coordinates write the same entry; delta = 1 - shared[0] at read
  // time.  Window 2: both read 0 -> both compute 1 -> final = 2 (atomic).
  // Window 1: the second sees the first's commit -> computes 0 -> final 1.
  const ScatterFixture fixture({{0}, {0}});
  const std::vector<std::uint32_t> order{0, 1};
  auto compute = [](Index, std::span<const float> s) {
    return 1.0 - static_cast<double>(s[0]);
  };
  {
    AsyncEngine stale(2, CommitPolicy::kAtomicAdd);
    std::vector<float> shared{0.0F};
    stale.run_epoch(order, compute,
                    [&](Index j) { return fixture.view(j); },
                    [](Index, double) {}, shared);
    EXPECT_FLOAT_EQ(shared[0], 2.0F);
  }
  {
    AsyncEngine fresh(1, CommitPolicy::kAtomicAdd);
    std::vector<float> shared{0.0F};
    fresh.run_epoch(order, compute,
                    [&](Index j) { return fixture.view(j); },
                    [](Index, double) {}, shared);
    EXPECT_FLOAT_EQ(shared[0], 1.0F);
  }
}

TEST(AsyncEngine, DrainsWhenWindowExceedsEpoch) {
  const ScatterFixture fixture({{0}, {1}});
  AsyncEngine engine(64, CommitPolicy::kAtomicAdd);
  std::vector<float> shared{0.0F, 0.0F};
  const std::vector<std::uint32_t> order{0, 1};
  const auto stats = engine.run_epoch(
      order, [](Index, std::span<const float>) { return 5.0; },
      [&](Index j) { return fixture.view(j); },
      [](Index, double) {}, shared);
  EXPECT_EQ(stats.updates, 2u);
  EXPECT_FLOAT_EQ(shared[0], 5.0F);
  EXPECT_FLOAT_EQ(shared[1], 5.0F);
}

TEST(AsyncEngine, EmptyOrderIsANoOp) {
  AsyncEngine engine(4, CommitPolicy::kAtomicAdd);
  std::vector<float> shared{1.0F};
  const auto stats = engine.run_epoch(
      {}, [](Index, std::span<const float>) { return 1.0; },
      [](Index) { return SparseVectorView{}; }, [](Index, double) {},
      shared);
  EXPECT_EQ(stats.updates, 0u);
  EXPECT_FLOAT_EQ(shared[0], 1.0F);
}

TEST(AsyncEngine, WeightUpdatesAreNeverLost) {
  // Even under wild commits, the private weight update applies for every
  // coordinate (PASSCoDe loses shared-vector adds, not weights).
  const ScatterFixture fixture({{0}, {0}, {0}, {0}});
  AsyncEngine engine(4, CommitPolicy::kLastWriterWins);
  std::vector<float> shared{0.0F};
  std::vector<double> weight_deltas(4, 0.0);
  const std::vector<std::uint32_t> order{0, 1, 2, 3};
  engine.run_epoch(
      order, [](Index, std::span<const float>) { return 1.0; },
      [&](Index j) { return fixture.view(j); },
      [&](Index j, double delta) { weight_deltas[j] += delta; }, shared);
  for (const auto d : weight_deltas) EXPECT_EQ(d, 1.0);
}

}  // namespace
}  // namespace tpa::core
