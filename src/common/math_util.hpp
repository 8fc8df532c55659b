// Small numeric helpers used when translating the paper's asymptotic
// parameters (k log N cluster sizes, log^{1+alpha} N degrees, ...) into
// concrete integers at finite N.
//
// Convention: "log" in the paper is asymptotic, so any fixed base works; we
// use the natural logarithm throughout and document constants relative to it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace now {

/// Natural log of n, floored at 1.0 so that k*log N is never degenerate at
/// tiny N (the paper assumes N large; benches start at N = 2^8).
[[nodiscard]] double log_n(double n);

/// (log n)^exponent with the same flooring.
[[nodiscard]] double log_pow(double n, double exponent);

/// Ceiling of log_pow as a size, at least `floor_value`.
[[nodiscard]] std::size_t ceil_log_pow(double n, double exponent,
                                       std::size_t floor_value = 1);

/// Integer square root (floor).
[[nodiscard]] std::uint64_t isqrt(std::uint64_t n);

}  // namespace now
