// Data partitioning: coverage, balance, and shard construction for both
// distribution axes.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "cluster/partition.hpp"
#include "data/generators.hpp"

namespace tpa::cluster {
namespace {

data::Dataset corpus() {
  data::WebspamLikeConfig config;
  config.num_examples = 200;
  config.num_features = 80;
  config.avg_nnz_per_row = 10.0;
  return data::make_webspam_like(config);
}

class PartitionSweep
    : public ::testing::TestWithParam<std::tuple<data::Index, int>> {};

TEST_P(PartitionSweep, RandomPartitionCoversEveryCoordinateOnce) {
  const auto [n, workers] = GetParam();
  util::Rng rng(3);
  const auto partition = Partition::random(n, workers, rng);
  EXPECT_EQ(partition.num_workers(), workers);
  EXPECT_TRUE(partition.covers(n));
}

TEST_P(PartitionSweep, RandomPartitionIsBalanced) {
  const auto [n, workers] = GetParam();
  util::Rng rng(4);
  const auto partition = Partition::random(n, workers, rng);
  std::size_t min_size = n;
  std::size_t max_size = 0;
  for (const auto& owned : partition.owned) {
    min_size = std::min(min_size, owned.size());
    max_size = std::max(max_size, owned.size());
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST_P(PartitionSweep, ContiguousPartitionCovers) {
  const auto [n, workers] = GetParam();
  const auto partition = Partition::contiguous(n, workers);
  EXPECT_TRUE(partition.covers(n));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionSweep,
    ::testing::Combine(::testing::Values<data::Index>(1u, 7u, 64u, 1000u),
                       ::testing::Values(1, 2, 3, 8)));

TEST(Partition, RejectsNonPositiveWorkers) {
  util::Rng rng(1);
  EXPECT_THROW(Partition::random(10, 0, rng), std::invalid_argument);
  EXPECT_THROW(Partition::contiguous(10, -1), std::invalid_argument);
}

TEST(Partition, CoversRejectsHolesAndDuplicates) {
  Partition holes;
  holes.owned = {{0, 1}, {3}};
  EXPECT_FALSE(holes.covers(4));
  Partition duplicates;
  duplicates.owned = {{0, 1}, {1, 2}};
  EXPECT_FALSE(duplicates.covers(3));
  Partition good;
  good.owned = {{0, 2}, {1}};
  EXPECT_TRUE(good.covers(3));
}

TEST(Partition, WeightedPartitionHonoursSizesAndCovers) {
  const std::vector<data::Index> sizes{5, 1, 10, 4};
  util::Rng rng(9);
  const auto partition = Partition::random_weighted(20, sizes, rng);
  ASSERT_EQ(partition.num_workers(), 4);
  EXPECT_EQ(partition.sizes(), sizes);   // round-trips the request
  EXPECT_TRUE(partition.covers(20));     // full coverage, no overlap
  // Owned lists are sorted like random()'s (shard builders rely on it).
  for (const auto& owned : partition.owned) {
    EXPECT_TRUE(std::is_sorted(owned.begin(), owned.end()));
  }
}

TEST(Partition, WeightedPartitionWithUniformSizesMatchesRandom) {
  // The placement layer's bit-exactness guarantee: the weighted deal with
  // the uniform quota consumes the same single permutation draw and assigns
  // identically, so pre-placement runs reproduce bit-for-bit.
  for (const auto& [n, workers] :
       {std::pair<data::Index, int>{64, 8}, {7, 3}, {100, 7}, {9, 9}}) {
    std::vector<data::Index> uniform;
    for (int k = 0; k < workers; ++k) {
      uniform.push_back(n / workers + (k < static_cast<int>(n % workers)));
    }
    util::Rng rng_a(42);
    util::Rng rng_b(42);
    const auto legacy = Partition::random(n, workers, rng_a);
    const auto weighted = Partition::random_weighted(n, uniform, rng_b);
    EXPECT_EQ(legacy.owned, weighted.owned) << n << "/" << workers;
    // Both consumed the same amount of the stream.
    EXPECT_EQ(rng_a(), rng_b());
  }
}

TEST(Partition, WeightedPartitionRejectsBadSizes) {
  util::Rng rng(1);
  const std::vector<data::Index> empty;
  EXPECT_THROW(Partition::random_weighted(10, empty, rng),
               std::invalid_argument);
  const std::vector<data::Index> zero{5, 0, 5};
  EXPECT_THROW(Partition::random_weighted(10, zero, rng),
               std::invalid_argument);
  const std::vector<data::Index> short_sum{4, 4};
  EXPECT_THROW(Partition::random_weighted(10, short_sum, rng),
               std::invalid_argument);
  const std::vector<data::Index> long_sum{8, 8};
  EXPECT_THROW(Partition::random_weighted(10, long_sum, rng),
               std::invalid_argument);
  EXPECT_THROW(Partition::contiguous_sizes(10, zero), std::invalid_argument);
}

TEST(Partition, ContiguousSizesAreContiguousRanges) {
  const std::vector<data::Index> sizes{2, 7, 1};
  const auto partition = Partition::contiguous_sizes(10, sizes);
  EXPECT_TRUE(partition.covers(10));
  EXPECT_EQ(partition.sizes(), sizes);
  EXPECT_EQ(partition.owned[0], (std::vector<data::Index>{0, 1}));
  EXPECT_EQ(partition.owned[2], (std::vector<data::Index>{9}));
}

TEST(Shards, WeightedShardNnzSumsToGlobal) {
  const auto global = corpus();
  const std::vector<data::Index> sizes{150, 20, 30};
  util::Rng rng(8);
  const auto partition =
      Partition::random_weighted(global.num_examples(), sizes, rng);
  sparse::Offset total = 0;
  for (const auto& owned : partition.owned) {
    total += make_example_shard(global, owned).nnz();
  }
  EXPECT_EQ(total, global.nnz());
}

TEST(FeatureShard, KeepsAllRowsAndSelectedColumns) {
  const auto global = corpus();
  const std::vector<data::Index> cols{3, 10, 42};
  const auto shard = make_feature_shard(global, cols);
  EXPECT_EQ(shard.num_examples(), global.num_examples());
  EXPECT_EQ(shard.num_features(), 3u);
  // Local column j must equal global column cols[j].
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const auto local =
        shard.bucketed_cols().unpadded(static_cast<data::Index>(j));
    const auto original = global.bucketed_cols().unpadded(cols[j]);
    ASSERT_EQ(local.nnz(), original.nnz());
    for (std::size_t k = 0; k < local.nnz(); ++k) {
      EXPECT_EQ(local.indices[k], original.indices[k]);
      EXPECT_EQ(local.values[k], original.values[k]);
    }
  }
  // Labels are replicated for the residual computation.
  ASSERT_EQ(shard.labels().size(), global.labels().size());
  EXPECT_EQ(shard.labels()[5], global.labels()[5]);
}

TEST(ExampleShard, KeepsSelectedRowsAndAllColumns) {
  const auto global = corpus();
  const std::vector<data::Index> rows{0, 99, 150};
  const auto shard = make_example_shard(global, rows);
  EXPECT_EQ(shard.num_examples(), 3u);
  EXPECT_EQ(shard.num_features(), global.num_features());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(shard.labels()[i], global.labels()[rows[i]]);
    const auto local = shard.by_row().row(static_cast<data::Index>(i));
    const auto original = global.by_row().row(rows[i]);
    ASSERT_EQ(local.nnz(), original.nnz());
    for (std::size_t k = 0; k < local.nnz(); ++k) {
      EXPECT_EQ(local.indices[k], original.indices[k]);
    }
  }
}

TEST(Shards, MakeShardDispatchesOnFormulation) {
  const auto global = corpus();
  const std::vector<data::Index> coords{1, 2};
  const auto primal = make_shard(global, core::Formulation::kPrimal, coords);
  EXPECT_EQ(primal.num_features(), 2u);
  EXPECT_EQ(primal.num_examples(), global.num_examples());
  const auto dual = make_shard(global, core::Formulation::kDual, coords);
  EXPECT_EQ(dual.num_examples(), 2u);
  EXPECT_EQ(dual.num_features(), global.num_features());
}

TEST(Shards, PaperScaleIsProportionallyInherited) {
  const auto global = corpus();  // carries webspam PaperScale
  util::Rng rng(5);
  const auto partition =
      Partition::random(global.num_examples(), 4, rng);
  const auto shard = make_example_shard(global, partition.owned[0]);
  ASSERT_TRUE(shard.paper_scale().has_value());
  const auto& global_scale = *global.paper_scale();
  const auto& shard_scale = *shard.paper_scale();
  // Examples scale by ~1/4; features stay global (shared vector dimension).
  EXPECT_NEAR(static_cast<double>(shard_scale.examples),
              global_scale.examples / 4.0, global_scale.examples * 0.02);
  EXPECT_EQ(shard_scale.features, global_scale.features);
  EXPECT_LT(shard_scale.nnz, global_scale.nnz / 3);
  EXPECT_GT(shard_scale.nnz, global_scale.nnz / 6);
}

// A 3x3 matrix with one stored zero, as an svmlight `i:0` token gives:
//   [ 1 0* 2 ]
//   [ 0 0  3 ]
//   [ 4 0  0 ]
data::Dataset stored_zero() {
  sparse::CsrMatrix matrix(3, 3, {0, 3, 4, 5}, {0, 1, 2, 2, 0},
                           {1.0F, 0.0F, 2.0F, 3.0F, 4.0F});
  return data::Dataset("stored_zero", std::move(matrix), {1.0F, -1.0F, 1.0F});
}

TEST(Shards, ShardNnzSumsToGlobal) {
  for (const auto& global : {corpus(), stored_zero()}) {
    util::Rng rng(6);
    for (const auto f :
         {core::Formulation::kPrimal, core::Formulation::kDual}) {
      const auto n = f == core::Formulation::kPrimal ? global.num_features()
                                                     : global.num_examples();
      const auto partition = Partition::random(n, 3, rng);
      sparse::Offset total = 0;
      for (const auto& owned : partition.owned) {
        total += make_shard(global, f, owned).nnz();
      }
      EXPECT_EQ(total, global.nnz())
          << global.name() << " " << core::formulation_name(f);
    }
  }
}

}  // namespace
}  // namespace tpa::cluster
