// Statistics helpers for the experiment harness.
//
// The benches validate distributional claims (Lemma 1's tail bound, randCl's
// size-biased output law, polylog cost growth), so we need running moments,
// quantiles, a chi-square goodness-of-fit test, and least-squares fits on
// transformed axes (cost vs (log N)^b).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace now {

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStat {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact empirical quantile (linear interpolation). q in [0,1].
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Pearson chi-square statistic of observed counts against expected
/// probabilities. `expected_probs` must sum to ~1 and have the same size.
[[nodiscard]] double chi_square_statistic(
    std::span<const std::uint64_t> observed,
    std::span<const double> expected_probs);

/// Upper-tail p-value of the chi-square distribution with `dof` degrees of
/// freedom (via the regularized upper incomplete gamma function).
[[nodiscard]] double chi_square_p_value(double statistic, std::size_t dof);

/// Ordinary least squares y = a + b*x. Returns {a, b, r2}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
[[nodiscard]] LinearFit linear_fit(std::span<const double> x,
                                   std::span<const double> y);

/// Fit cost(N) = a * (ln N)^b by OLS of ln(cost) on ln(ln N).
/// Returns {ln a, b, r2}. A good fit (r2 close to 1) with moderate exponent b
/// is the empirical signature of "polylog(N)" cost.
[[nodiscard]] LinearFit polylog_fit(std::span<const double> n_values,
                                    std::span<const double> costs);

/// Fit cost(N) = a * N^b by OLS on log-log axes. Returns {ln a, b, r2}.
/// Used to check *polynomial* growth (e.g. the O(N^{3/2} log N) init cost and
/// the baselines' O(n^2) broadcast).
[[nodiscard]] LinearFit powerlaw_fit(std::span<const double> n_values,
                                     std::span<const double> costs);

}  // namespace now
