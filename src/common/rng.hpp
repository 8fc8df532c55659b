// Deterministic pseudo-random number generation for the simulation.
//
// Every stochastic component of the reproduction (adversary choices, CTRW
// trajectories, randNum contributions, Erdős–Rényi wiring, ...) draws from
// an explicitly passed Rng so whole experiments are reproducible from a
// single seed. The generator is xoshiro256** seeded via splitmix64, which is
// fast, has 256-bit state, and passes BigCrush — adequate for simulation
// statistics (this is not a cryptographic RNG; randNum's *security* argument
// lives in the protocol, not in this generator).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace now {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// Deterministic xoshiro256** generator with convenience sampling helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// UniformRandomBitGenerator interface (usable with <random> and
  /// std::shuffle).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform integer in [0, bound). Requires bound > 0. Uses Lemire's
  /// nearly-divisionless rejection method (unbiased).
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponential variate with the given rate (> 0). Used for CTRW holding
  /// times (per-edge rate-1 clocks).
  double exponential(double rate);

  /// Fisher–Yates shuffle of an entire span.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n). Requires k <= n.
  /// Floyd's algorithm: O(k) expected work independent of n.
  [[nodiscard]] std::vector<std::size_t> sample_distinct(std::size_t n,
                                                         std::size_t k);

  /// Deterministically derive an independent child generator. Used to give
  /// each protocol entity its own stream without sharing state.
  [[nodiscard]] Rng fork();

  /// Stateless stream derivation for parallel stepping: the generator is a
  /// pure function of (seed, stream, substream), so any worker can recreate
  /// the stream for operation `substream` of batch `stream` without touching
  /// shared RNG state. Nearby triples land in unrelated states (each word is
  /// passed through splitmix64 before mixing in the next).
  [[nodiscard]] static Rng derive_stream(std::uint64_t seed,
                                         std::uint64_t stream,
                                         std::uint64_t substream);

  /// Bulk stream derivation: fills `out[0..count)` with exactly the
  /// generators `derive_stream(seed, stream, first + i)` would produce
  /// (byte-identical states). The (seed, stream)-dependent prefix of the
  /// mix is hoisted out of the loop, so a whole batch costs 5 splitmix64
  /// rounds per stream instead of 7 plus per-call overhead — the plan
  /// phase derives one stream per op and per wave, which makes this the
  /// hot generator-init path at n=1e7.
  static void derive_streams(std::uint64_t seed, std::uint64_t stream,
                             std::uint64_t first, std::size_t count, Rng* out);

  /// Raw 256-bit generator state — the snapshot subsystem serializes and
  /// restores generators mid-stream so a resumed run continues the exact
  /// draw sequence (DESIGN.md §8).
  [[nodiscard]] std::array<std::uint64_t, 4> state() const { return state_; }
  void restore_state(const std::array<std::uint64_t, 4>& state) {
    state_ = state;
  }

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace now
