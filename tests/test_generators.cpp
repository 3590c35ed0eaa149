// Synthetic dataset generators: structure, determinism, and the properties
// the paper's phenomenology depends on.
#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.hpp"

namespace tpa::data {
namespace {

WebspamLikeConfig small_webspam_config() {
  WebspamLikeConfig config;
  config.num_examples = 256;
  config.num_features = 512;
  config.avg_nnz_per_row = 16.0;
  return config;
}

TEST(WebspamLike, DimensionsMatchConfig) {
  const auto dataset = make_webspam_like(small_webspam_config());
  EXPECT_EQ(dataset.num_examples(), 256u);
  EXPECT_EQ(dataset.num_features(), 512u);
  EXPECT_EQ(dataset.name(), "webspam_like");
}

TEST(WebspamLike, EveryRowIsNonEmptyAndUnitNorm) {
  const auto dataset = make_webspam_like(small_webspam_config());
  for (Index r = 0; r < dataset.num_examples(); ++r) {
    ASSERT_GT(dataset.by_row().row_nnz(r), 0u);
    EXPECT_NEAR(dataset.row_squared_norms()[r], 1.0, 1e-3)
        << "row " << r << " should be L2-normalised";
  }
}

TEST(WebspamLike, NormalizationCanBeDisabled) {
  auto config = small_webspam_config();
  config.normalize_rows = false;
  const auto dataset = make_webspam_like(config);
  bool any_non_unit = false;
  for (Index r = 0; r < dataset.num_examples(); ++r) {
    if (std::abs(dataset.row_squared_norms()[r] - 1.0) > 0.05) {
      any_non_unit = true;
    }
  }
  EXPECT_TRUE(any_non_unit);
}

TEST(WebspamLike, MeanRowLengthTracksConfig) {
  const auto dataset = make_webspam_like(small_webspam_config());
  const double mean_nnz = static_cast<double>(dataset.nnz()) /
                          dataset.num_examples();
  EXPECT_GT(mean_nnz, 8.0);
  EXPECT_LT(mean_nnz, 40.0);
}

TEST(WebspamLike, PopularFeaturesFollowZipfHead) {
  const auto dataset = make_webspam_like(small_webspam_config());
  // Feature 0 (most popular under the Zipf law) should appear in far more
  // rows than a mid-tail feature.
  EXPECT_GT(dataset.bucketed_cols().nnz_of(0),
            4 * std::max<std::size_t>(1, dataset.bucketed_cols().nnz_of(200)));
}

TEST(WebspamLike, DeterministicForSameSeedDifferentOtherwise) {
  const auto a = make_webspam_like(small_webspam_config());
  const auto b = make_webspam_like(small_webspam_config());
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.labels()[0], b.labels()[0]);
  EXPECT_EQ(a.by_row().col_indices()[0], b.by_row().col_indices()[0]);

  auto other_config = small_webspam_config();
  other_config.seed = 999;
  const auto c = make_webspam_like(other_config);
  EXPECT_NE(a.labels()[0], c.labels()[0]);
}

TEST(WebspamLike, CarriesWebspamPaperScale) {
  const auto dataset = make_webspam_like(small_webspam_config());
  ASSERT_TRUE(dataset.paper_scale().has_value());
  EXPECT_EQ(dataset.paper_scale()->name, "webspam");
  EXPECT_EQ(dataset.paper_scale()->examples, 262'938u);
  EXPECT_EQ(dataset.paper_scale()->features, 680'715u);
}

CriteoLikeConfig small_criteo_config() {
  CriteoLikeConfig config;
  config.num_examples = 512;
  config.num_fields = 8;
  config.buckets_per_field = 32;
  return config;
}

TEST(CriteoLike, OneHotStructure) {
  const auto dataset = make_criteo_like(small_criteo_config());
  EXPECT_EQ(dataset.num_features(), 8u * 32u);
  for (Index r = 0; r < dataset.num_examples(); ++r) {
    // Exactly one active bucket per field.
    ASSERT_EQ(dataset.by_row().row_nnz(r), 8u);
    const auto view = dataset.by_row().row(r);
    for (std::size_t k = 0; k < view.nnz(); ++k) {
      EXPECT_EQ(view.values[k], 1.0F) << "criteo values are always 1.0";
      EXPECT_EQ(view.indices[k] / 32, k) << "one feature per field range";
    }
  }
}

TEST(CriteoLike, LabelsAreSigns) {
  const auto dataset = make_criteo_like(small_criteo_config());
  int positives = 0;
  for (const auto y : dataset.labels()) {
    EXPECT_TRUE(y == 1.0F || y == -1.0F);
    positives += y > 0 ? 1 : 0;
  }
  // The planted model should produce a non-degenerate class split.
  EXPECT_GT(positives, 32);
  EXPECT_LT(positives, 480);
}

TEST(CriteoLike, CarriesCriteoPaperScale) {
  const auto dataset = make_criteo_like(small_criteo_config());
  ASSERT_TRUE(dataset.paper_scale().has_value());
  EXPECT_EQ(dataset.paper_scale()->examples, 200'000'000u);
  EXPECT_EQ(dataset.paper_scale()->features, 75'000'000u);
}

TEST(DenseGaussian, FullDensityWhenRequested) {
  DenseGaussianConfig config;
  config.num_examples = 16;
  config.num_features = 8;
  config.density = 1.0;
  const auto dataset = make_dense_gaussian(config);
  EXPECT_EQ(dataset.nnz(), 16u * 8u);
}

TEST(DenseGaussian, DensityControlsFill) {
  DenseGaussianConfig config;
  config.num_examples = 64;
  config.num_features = 64;
  config.density = 0.25;
  const auto dataset = make_dense_gaussian(config);
  const double fill = static_cast<double>(dataset.nnz()) / (64.0 * 64.0);
  EXPECT_NEAR(fill, 0.25, 0.05);
}

TEST(PlantedLabels, NoiseFreeLabelsAreDeterministicLinearModel) {
  DenseGaussianConfig config;
  config.num_examples = 32;
  config.num_features = 8;
  config.noise_sigma = 0.0;
  const auto dataset = make_dense_gaussian(config);
  // With zero noise the labels must be exactly A·beta (up to the unit-
  // variance normalisation), so a ridge fit can drive the residual to ~0;
  // here we just check labels are finite, non-constant and reproducible.
  float min_y = dataset.labels()[0];
  float max_y = dataset.labels()[0];
  for (const auto y : dataset.labels()) {
    ASSERT_TRUE(std::isfinite(y));
    min_y = std::min(min_y, y);
    max_y = std::max(max_y, y);
  }
  EXPECT_LT(min_y, max_y);
}

}  // namespace
}  // namespace tpa::data
