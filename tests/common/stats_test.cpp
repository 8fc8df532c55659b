#include "common/stats.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace now {
namespace {

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, EmptyAndSingle) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(QuantileTest, KnownQuantiles) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
}

TEST(QuantileTest, Interpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
}

TEST(ChiSquareTest, UniformDataHasHighPValue) {
  std::vector<std::uint64_t> observed{100, 105, 95, 102, 98};
  std::vector<double> probs(5, 0.2);
  const double stat = chi_square_statistic(observed, probs);
  EXPECT_GT(chi_square_p_value(stat, 4), 0.5);
}

TEST(ChiSquareTest, SkewedDataHasLowPValue) {
  std::vector<std::uint64_t> observed{400, 25, 25, 25, 25};
  std::vector<double> probs(5, 0.2);
  const double stat = chi_square_statistic(observed, probs);
  EXPECT_LT(chi_square_p_value(stat, 4), 1e-6);
}

TEST(ChiSquareTest, PValueBoundaries) {
  EXPECT_DOUBLE_EQ(chi_square_p_value(0.0, 5), 1.0);
  EXPECT_DOUBLE_EQ(chi_square_p_value(10.0, 0), 1.0);
  // Large statistic, small dof -> essentially zero.
  EXPECT_LT(chi_square_p_value(1000.0, 3), 1e-12);
}

TEST(ChiSquareTest, MedianOfChiSquare1IsAboutHalf) {
  // P(X > 0.455) ~ 0.5 for chi-square with 1 dof.
  EXPECT_NEAR(chi_square_p_value(0.455, 1), 0.5, 0.01);
}

TEST(LinearFitTest, RecoversExactLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y;
  for (const double xi : x) y.push_back(3.0 + 2.0 * xi);
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(LinearFitTest, NoisyLineStillGoodFit) {
  Rng rng{5};
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    const double xi = static_cast<double>(i);
    x.push_back(xi);
    y.push_back(1.0 + 0.5 * xi + (rng.uniform01() - 0.5));
  }
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 0.5, 0.05);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(PolylogFitTest, RecoversPolylogExponent) {
  // cost = 7 * (ln n)^3.
  std::vector<double> n;
  std::vector<double> cost;
  for (double v = 256; v <= 1 << 20; v *= 2) {
    n.push_back(v);
    cost.push_back(7.0 * std::pow(std::log(v), 3.0));
  }
  const auto fit = polylog_fit(n, cost);
  EXPECT_NEAR(fit.slope, 3.0, 1e-6);
  EXPECT_NEAR(std::exp(fit.intercept), 7.0, 1e-6);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(PowerlawFitTest, RecoversExponent) {
  // cost = 2 * n^{1.5}.
  std::vector<double> n;
  std::vector<double> cost;
  for (double v = 64; v <= 65536; v *= 4) {
    n.push_back(v);
    cost.push_back(2.0 * std::pow(v, 1.5));
  }
  const auto fit = powerlaw_fit(n, cost);
  EXPECT_NEAR(fit.slope, 1.5, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept), 2.0, 1e-6);
}

TEST(PowerlawFitTest, DistinguishesPolylogFromPolynomial) {
  // A genuinely polylog curve should yield a tiny power-law exponent.
  std::vector<double> n;
  std::vector<double> cost;
  for (double v = 1 << 8; v <= 1 << 20; v *= 2) {
    n.push_back(v);
    cost.push_back(std::pow(std::log(v), 4.0));
  }
  const auto fit = powerlaw_fit(n, cost);
  EXPECT_LT(fit.slope, 0.5);
}

}  // namespace
}  // namespace now
