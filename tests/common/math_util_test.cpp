#include "common/math_util.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace now {
namespace {

TEST(MathUtilTest, LogNIsFlooredAtOne) {
  EXPECT_DOUBLE_EQ(log_n(1.0), 1.0);
  EXPECT_DOUBLE_EQ(log_n(0.0), 1.0);
  EXPECT_DOUBLE_EQ(log_n(std::exp(1.0)), 1.0);
  EXPECT_NEAR(log_n(std::exp(3.0)), 3.0, 1e-12);
}

TEST(MathUtilTest, LogPow) {
  EXPECT_NEAR(log_pow(std::exp(2.0), 3.0), 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(log_pow(1.0, 5.0), 1.0);
}

TEST(MathUtilTest, CeilLogPowRespectsFloor) {
  EXPECT_EQ(ceil_log_pow(std::exp(2.0), 2.0), 4u);
  EXPECT_EQ(ceil_log_pow(1.0, 2.0, 7), 7u);
}

TEST(MathUtilTest, IsqrtExactSquares) {
  for (std::uint64_t r = 0; r <= 1000; ++r) EXPECT_EQ(isqrt(r * r), r);
}

TEST(MathUtilTest, IsqrtBetweenSquares) {
  EXPECT_EQ(isqrt(2), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(8), 2u);
  EXPECT_EQ(isqrt(99), 9u);
  EXPECT_EQ(isqrt((1ULL << 32) - 1), 65535u);
}

}  // namespace
}  // namespace now
