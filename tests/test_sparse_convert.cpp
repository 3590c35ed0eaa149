// Format conversions: COO -> CSR, transpose, densify — including
// randomized property sweeps.
#include <gtest/gtest.h>

#include <tuple>

#include "sparse/convert.hpp"
#include "util/rng.hpp"

namespace tpa::sparse {
namespace {

CooBuilder random_coo(Index rows, Index cols, double density,
                      util::Rng& rng) {
  CooBuilder coo(rows, cols);
  for (Index r = 0; r < rows; ++r) {
    for (Index c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        coo.add(r, c, static_cast<Value>(rng.normal()));
      }
    }
  }
  return coo;
}

TEST(Convert, CooToCsrPreservesEntries) {
  CooBuilder coo(2, 3);
  coo.add(1, 2, 4.0F);
  coo.add(0, 0, 1.0F);
  coo.add(1, 0, 3.0F);
  const auto csr = coo_to_csr(coo);
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_EQ(csr.at(0, 0), 1.0F);
  EXPECT_EQ(csr.at(1, 0), 3.0F);
  EXPECT_EQ(csr.at(1, 2), 4.0F);
  EXPECT_EQ(csr.at(0, 1), 0.0F);
}

TEST(Convert, CooToCsrSumsDuplicates) {
  CooBuilder coo(1, 1);
  coo.add(0, 0, 1.5F);
  coo.add(0, 0, 2.5F);
  const auto csr = coo_to_csr(coo);
  EXPECT_EQ(csr.nnz(), 1u);
  EXPECT_EQ(csr.at(0, 0), 4.0F);
}

TEST(Convert, TransposeMatchesCooOfSwappedEntries) {
  util::Rng rng(5);
  const auto coo = random_coo(8, 13, 0.3, rng);
  CooBuilder swapped(13, 8);
  for (const auto& e : coo.entries()) swapped.add(e.col, e.row, e.value);
  const auto t = transpose(coo_to_csr(coo));
  const auto direct = coo_to_csr(swapped);
  for (Index c = 0; c < 13; ++c) {
    for (Index r = 0; r < 8; ++r) {
      EXPECT_EQ(t.at(c, r), direct.at(c, r)) << c << "," << r;
    }
  }
}

TEST(Convert, EmptyMatrixRoundTrips) {
  CooBuilder coo(4, 5);
  const auto csr = coo_to_csr(coo);
  EXPECT_EQ(csr.nnz(), 0u);
  const auto t = transpose(csr);
  EXPECT_EQ(t.nnz(), 0u);
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 4u);
  const auto back = transpose(t);
  EXPECT_EQ(back.rows(), 4u);
  EXPECT_EQ(back.nnz(), 0u);
}

TEST(Convert, TransposeSwapsDimsAndEntries) {
  CooBuilder coo(2, 3);
  coo.add(0, 2, 7.0F);
  coo.add(1, 0, -2.0F);
  const auto csr = coo_to_csr(coo);
  const auto t = transpose(csr);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.at(2, 0), 7.0F);
  EXPECT_EQ(t.at(0, 1), -2.0F);
}

TEST(Convert, DenseMatchesPointLookups) {
  util::Rng rng(6);
  const auto csr = coo_to_csr(random_coo(5, 7, 0.4, rng));
  const auto dense = to_dense(csr);
  for (Index r = 0; r < 5; ++r) {
    for (Index c = 0; c < 7; ++c) {
      EXPECT_DOUBLE_EQ(dense[r * 7 + c],
                       static_cast<double>(csr.at(r, c)));
    }
  }
}

TEST(Convert, DenseRefusesHugeMatrices) {
  const CsrMatrix wide(1, 1u << 30, {0, 0}, {}, {});
  EXPECT_THROW(to_dense(wide), std::length_error);
}

class ConvertRoundTrip
    : public ::testing::TestWithParam<
          std::tuple<Index, Index, double, std::uint64_t>> {};

TEST_P(ConvertRoundTrip, DoubleTransposeIsIdentity) {
  const auto [rows, cols, density, seed] = GetParam();
  util::Rng rng(seed + 1000);
  const auto original = coo_to_csr(random_coo(rows, cols, density, rng));
  const auto twice = transpose(transpose(original));
  ASSERT_EQ(twice.rows(), original.rows());
  ASSERT_EQ(twice.cols(), original.cols());
  for (Index r = 0; r < rows; ++r) {
    const auto a = original.row(r);
    const auto b = twice.row(r);
    ASSERT_EQ(a.nnz(), b.nnz());
    for (std::size_t k = 0; k < a.nnz(); ++k) {
      EXPECT_EQ(a.indices[k], b.indices[k]);
      EXPECT_EQ(a.values[k], b.values[k]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvertRoundTrip,
    ::testing::Values(std::make_tuple(1u, 1u, 1.0, 1ULL),
                      std::make_tuple(16u, 16u, 0.2, 2ULL),
                      std::make_tuple(1u, 64u, 0.5, 3ULL),
                      std::make_tuple(64u, 1u, 0.5, 4ULL),
                      std::make_tuple(31u, 17u, 0.05, 5ULL),
                      std::make_tuple(10u, 10u, 0.0, 6ULL)));

}  // namespace
}  // namespace tpa::sparse
