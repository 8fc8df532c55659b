#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace now {

void RunningStat::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStat::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStat::max() const { return count_ == 0 ? 0.0 : max_; }

double quantile(std::vector<double> samples, double q) {
  assert(!samples.empty());
  assert(q >= 0.0 && q <= 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double chi_square_statistic(std::span<const std::uint64_t> observed,
                            std::span<const double> expected_probs) {
  assert(observed.size() == expected_probs.size());
  std::uint64_t total = 0;
  for (const auto o : observed) total += o;
  double statistic = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double expected = expected_probs[i] * static_cast<double>(total);
    if (expected <= 0.0) continue;  // impossible bin, skip (observed must be 0)
    const double diff = static_cast<double>(observed[i]) - expected;
    statistic += diff * diff / expected;
  }
  return statistic;
}

namespace {

// Regularized upper incomplete gamma Q(a, x) via series / continued fraction
// (Numerical Recipes style). Accurate enough for p-value thresholds.
double gamma_q(double a, double x) {
  assert(a > 0.0 && x >= 0.0);
  constexpr int kMaxIter = 500;
  constexpr double kEps = 1e-12;
  const double gln = std::lgamma(a);
  if (x < a + 1.0) {
    // Series for P(a,x); Q = 1 - P.
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int i = 0; i < kMaxIter; ++i) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * kEps) break;
    }
    const double p = sum * std::exp(-x + a * std::log(x) - gln);
    return std::clamp(1.0 - p, 0.0, 1.0);
  }
  // Continued fraction for Q(a,x) (modified Lentz).
  double b = x + 1.0 - a;
  double c = 1.0 / std::numeric_limits<double>::min();
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < std::numeric_limits<double>::min())
      d = std::numeric_limits<double>::min();
    c = b + an / c;
    if (std::fabs(c) < std::numeric_limits<double>::min())
      c = std::numeric_limits<double>::min();
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  const double q = std::exp(-x + a * std::log(x) - gln) * h;
  return std::clamp(q, 0.0, 1.0);
}

}  // namespace

double chi_square_p_value(double statistic, std::size_t dof) {
  if (dof == 0) return 1.0;
  if (statistic <= 0.0) return 1.0;
  return gamma_q(static_cast<double>(dof) / 2.0, statistic / 2.0);
}

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size() && x.size() >= 2);
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  LinearFit fit;
  if (denom == 0.0) return fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - (fit.intercept + fit.slope * x[i]);
    ss_res += r * r;
  }
  fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

namespace {

LinearFit fit_on_transformed(std::span<const double> n_values,
                             std::span<const double> costs,
                             double (*x_transform)(double)) {
  assert(n_values.size() == costs.size());
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(n_values.size());
  ys.reserve(n_values.size());
  for (std::size_t i = 0; i < n_values.size(); ++i) {
    if (n_values[i] <= 1.0 || costs[i] <= 0.0) continue;
    xs.push_back(x_transform(n_values[i]));
    ys.push_back(std::log(costs[i]));
  }
  if (xs.size() < 2) return {};
  return linear_fit(xs, ys);
}

}  // namespace

LinearFit polylog_fit(std::span<const double> n_values,
                      std::span<const double> costs) {
  return fit_on_transformed(n_values, costs,
                            [](double n) { return std::log(std::log(n)); });
}

LinearFit powerlaw_fit(std::span<const double> n_values,
                       std::span<const double> costs) {
  return fit_on_transformed(n_values, costs,
                            [](double n) { return std::log(n); });
}

}  // namespace now
