#include "common/rng.hpp"

#include <cassert>
#include <cmath>
#include <unordered_set>

namespace now {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  assert(bound > 0 && "uniform() requires a positive bound");
  // Lemire's method: multiply-shift with rejection of the biased low range.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform01() {
  // 53 random mantissa bits -> uniform on [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::exponential(double rate) {
  assert(rate > 0.0);
  // Inverse CDF on (0,1]: avoid log(0) by flipping the uniform.
  const double u = 1.0 - uniform01();
  return -std::log(u) / rate;
}

std::vector<std::size_t> Rng::sample_distinct(std::size_t n, std::size_t k) {
  assert(k <= n);
  // Floyd's algorithm produces a uniform k-subset; we then shuffle so the
  // order is also uniform (callers use the first element as "the" choice).
  std::unordered_set<std::size_t> chosen;
  std::vector<std::size_t> result;
  result.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = static_cast<std::size_t>(uniform(j + 1));
    if (chosen.insert(t).second) {
      result.push_back(t);
    } else {
      chosen.insert(j);
      result.push_back(j);
    }
  }
  shuffle(std::span<std::size_t>(result));
  return result;
}

Rng Rng::fork() { return Rng{next() ^ 0xD1B54A32D192ED03ULL}; }

Rng Rng::derive_stream(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t substream) {
  std::uint64_t state = seed;
  std::uint64_t acc = splitmix64(state);
  state = acc ^ (stream + 0xA0761D6478BD642FULL);
  acc = splitmix64(state);
  state = acc ^ (substream + 0xE7037ED1A0B428DBULL);
  return Rng{splitmix64(state)};
}

void Rng::derive_streams(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t first, std::size_t count, Rng* out) {
  // The first two splitmix64 rounds of derive_stream depend only on
  // (seed, stream); hoist them so the loop body is pure per-substream mix.
  std::uint64_t state = seed;
  std::uint64_t acc = splitmix64(state);
  state = acc ^ (stream + 0xA0761D6478BD642FULL);
  acc = splitmix64(state);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t sub = acc ^ (first + i + 0xE7037ED1A0B428DBULL);
    out[i] = Rng{splitmix64(sub)};
  }
}

}  // namespace now
