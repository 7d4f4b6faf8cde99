#include "sketch/estimators.h"

#include <gtest/gtest.h>

#include <cmath>

#include "reference_estimator.h"

namespace sketchtree {
namespace {

// The sum/product estimator formulas, checked on the test-only
// reference implementation (the production estimator is checked
// against it bit for bit in virtual_streams_test and
// query_service_test).
using reference::EstimateProduct;
using reference::EstimateProductGeneric;
using reference::EstimateSum;
using reference::EstimateSumGeneric;

TEST(FactorialTest, SmallValues) {
  EXPECT_DOUBLE_EQ(Factorial(0), 1.0);
  EXPECT_DOUBLE_EQ(Factorial(1), 1.0);
  EXPECT_DOUBLE_EQ(Factorial(2), 2.0);
  EXPECT_DOUBLE_EQ(Factorial(3), 6.0);
  EXPECT_DOUBLE_EQ(Factorial(5), 120.0);
}

SketchArray MakeLoadedArray(int s1, uint64_t seed) {
  SketchArray array(s1, 7, /*independence=*/8, seed);
  array.Update(1, 30);
  array.Update(2, 12);
  array.Update(3, 5);
  array.Update(4, 90);
  return array;
}

TEST(EstimatorsTest, SumEstimateRecoversTotals) {
  SketchArray array = MakeLoadedArray(300, 5);
  // f1 + f2 + f3 = 47.
  EXPECT_NEAR(EstimateSum(array, {1, 2, 3}), 47.0, 20.0);
  // Single-value sum degenerates to the point estimator.
  EXPECT_NEAR(EstimateSum(array, {4}), 90.0, 20.0);
  // Sum including absent values adds ~0.
  EXPECT_NEAR(EstimateSum(array, {1, 99}), 30.0, 20.0);
}

TEST(EstimatorsTest, ProductEstimateRecoversProducts) {
  SketchArray array = MakeLoadedArray(1200, 9);
  // f1 * f2 = 360.
  double est = EstimateProduct(array, {1, 2});
  EXPECT_NEAR(est, 360.0, 360.0 * 0.6);
  // Product with an absent value is ~0 (relative to the pair scale).
  EXPECT_NEAR(EstimateProduct(array, {1, 99}), 0.0, 360.0 * 0.6);
}

TEST(EstimatorsTest, SumEstimatorIsUnbiasedOverSeeds) {
  // Average the s1=1,s2=1 estimator over many independent seeds; the
  // grand mean must approach f1 + f2 (Equation 6).
  constexpr int kSeeds = 30000;
  double total = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SketchArray array(1, 1, 4, seed);
    array.Update(1, 8);
    array.Update(2, 3);
    array.Update(3, 6);
    total += EstimateSum(array, {1, 2});
  }
  EXPECT_NEAR(total / kSeeds, 11.0, 0.5);
}

TEST(EstimatorsTest, ProductEstimatorIsUnbiasedOverSeeds) {
  // E[X^2/2! xi_1 xi_2] = f1 f2 (Section 4's Example 3). Needs >= 4-wise
  // independence; we use 8.
  constexpr int kSeeds = 60000;
  double total = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SketchArray array(1, 1, 8, seed);
    array.Update(1, 8);
    array.Update(2, 3);
    array.Update(3, 6);
    total += EstimateProduct(array, {1, 2});
  }
  EXPECT_NEAR(total / kSeeds, 24.0, 2.5);
}

TEST(EstimatorsTest, GenericProvidersAreHonored) {
  // Constant providers make the estimator analytic:
  // per-instance sum term = X * (xi_a + xi_b) = 10 * (1 + (-1)) = 0.
  auto xi = [](int, int, uint64_t v) { return v == 1 ? 1 : -1; };
  auto x = [](int, int) { return 10.0; };
  EXPECT_DOUBLE_EQ(EstimateSumGeneric(3, 3, {1, 2}, xi, x), 0.0);
  // Product term = X^2/2 * xi_1 xi_2 = 100/2 * -1 = -50.
  EXPECT_DOUBLE_EQ(EstimateProductGeneric(3, 3, {1, 2}, xi, x), -50.0);
}

}  // namespace
}  // namespace sketchtree
