#include "common/rng.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace now {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a{12345};
  Rng b{12345};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng{7};
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(RngTest, Uniform01InUnitInterval) {
  Rng rng{11};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIsUnbiasedChiSquare) {
  Rng rng{13};
  constexpr std::size_t kBins = 16;
  constexpr std::size_t kDraws = 64000;
  std::vector<std::uint64_t> counts(kBins, 0);
  for (std::size_t i = 0; i < kDraws; ++i) counts[rng.uniform(kBins)]++;
  std::vector<double> expected(kBins, 1.0 / kBins);
  const double stat = chi_square_statistic(counts, expected);
  const double p = chi_square_p_value(stat, kBins - 1);
  EXPECT_GT(p, 1e-4);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng{17};
  const double p = 0.3;
  int hits = 0;
  constexpr int kTrials = 50000;
  for (int i = 0; i < kTrials; ++i) hits += rng.bernoulli(p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, p, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng{19};
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(RngTest, ExponentialHasCorrectMean) {
  Rng rng{23};
  const double rate = 4.0;
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.add(rng.exponential(rate));
  EXPECT_NEAR(stat.mean(), 1.0 / rate, 0.01);
  for (int i = 0; i < 100; ++i) EXPECT_GT(rng.exponential(rate), 0.0);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng{29};
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.shuffle(std::span<int>(shuffled));
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, values);
}

TEST(RngTest, ShuffleIsUniformOverPositions) {
  // Each value should land in each position ~ uniformly.
  Rng rng{31};
  constexpr std::size_t kSize = 5;
  constexpr std::size_t kTrials = 30000;
  std::array<std::array<std::uint64_t, kSize>, kSize> counts{};
  for (std::size_t t = 0; t < kTrials; ++t) {
    std::array<int, kSize> v{0, 1, 2, 3, 4};
    rng.shuffle(std::span<int>(v));
    for (std::size_t pos = 0; pos < kSize; ++pos)
      counts[static_cast<std::size_t>(v[pos])][pos]++;
  }
  std::vector<double> expected(kSize, 1.0 / kSize);
  for (std::size_t value = 0; value < kSize; ++value) {
    const double stat = chi_square_statistic(counts[value], expected);
    EXPECT_GT(chi_square_p_value(stat, kSize - 1), 1e-4) << "value " << value;
  }
}

TEST(RngTest, SampleDistinctProducesDistinctInRange) {
  Rng rng{37};
  for (std::size_t n : {5ULL, 20ULL, 100ULL}) {
    for (std::size_t k = 0; k <= std::min<std::size_t>(n, 10); ++k) {
      const auto sample = rng.sample_distinct(n, k);
      EXPECT_EQ(sample.size(), k);
      std::set<std::size_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (const auto v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(RngTest, SampleDistinctFullRange) {
  Rng rng{41};
  const auto sample = rng.sample_distinct(6, 6);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 6u);
}

TEST(RngTest, SampleDistinctIsUniform) {
  // Every element should be included with probability k/n.
  Rng rng{43};
  constexpr std::size_t kN = 10;
  constexpr std::size_t kK = 3;
  constexpr std::size_t kTrials = 30000;
  std::vector<std::uint64_t> inclusion(kN, 0);
  for (std::size_t t = 0; t < kTrials; ++t) {
    for (const auto v : rng.sample_distinct(kN, kK)) inclusion[v]++;
  }
  const double expected = static_cast<double>(kTrials) * kK / kN;
  for (const auto count : inclusion) {
    EXPECT_NEAR(static_cast<double>(count), expected, expected * 0.07);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a{53};
  Rng child = a.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == child.next() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, DeriveStreamIsAPureFunctionOfItsTriple) {
  Rng a = Rng::derive_stream(9, 3, 7);
  Rng b = Rng::derive_stream(9, 3, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DeriveStreamSeparatesNearbyTriples) {
  // Streams for adjacent (batch, op) pairs must be unrelated — the sharded
  // planner hands stream (batch, i) to operation i of every batch.
  const std::vector<Rng> streams = {
      Rng::derive_stream(1, 0, 0), Rng::derive_stream(1, 0, 1),
      Rng::derive_stream(1, 1, 0), Rng::derive_stream(2, 0, 0)};
  std::vector<std::vector<std::uint64_t>> draws;
  for (Rng rng : streams) {
    auto& seq = draws.emplace_back();
    for (int i = 0; i < 100; ++i) seq.push_back(rng.next());
  }
  for (std::size_t i = 0; i < draws.size(); ++i) {
    for (std::size_t j = i + 1; j < draws.size(); ++j) {
      int equal = 0;
      for (std::size_t k = 0; k < 100; ++k) {
        equal += draws[i][k] == draws[j][k] ? 1 : 0;
      }
      EXPECT_LT(equal, 5) << "streams " << i << " and " << j;
    }
  }
}

TEST(RngTest, DeriveStreamsMatchesIndividualDerivesByteExactly) {
  // The bulk kernel must be indistinguishable from N individual
  // derive_stream calls — the batch engine's bit-identity contract rides
  // on it. Compare raw 256-bit states, not just draws.
  const std::uint64_t seeds[] = {0, 1, 42, 0xDEADBEEFCAFEF00DULL};
  const std::uint64_t streams[] = {0, 1, 17, ~std::uint64_t{0} - 3};
  const std::uint64_t firsts[] = {0, 1, 1000, ~std::uint64_t{0} - 5};
  for (const auto seed : seeds) {
    for (const auto stream : streams) {
      for (const auto first : firsts) {
        constexpr std::size_t kCount = 9;
        std::vector<Rng> bulk(kCount, Rng{0});
        Rng::derive_streams(seed, stream, first, kCount, bulk.data());
        for (std::size_t i = 0; i < kCount; ++i) {
          const Rng one = Rng::derive_stream(seed, stream, first + i);
          EXPECT_EQ(bulk[i].state(), one.state())
              << "seed=" << seed << " stream=" << stream
              << " substream=" << first + i;
        }
      }
    }
  }
}

TEST(RngTest, DeriveStreamsAcrossBatchBoundary) {
  // Two bulk calls for consecutive batches (streams) must each match their
  // own per-call derivations: the hoisted prefix is per-(seed, stream).
  constexpr std::uint64_t kSeed = 777;
  constexpr std::size_t kOps = 33;
  for (std::uint64_t batch = 0; batch < 4; ++batch) {
    std::vector<Rng> bulk(kOps, Rng{0});
    Rng::derive_streams(kSeed, batch, 0, kOps, bulk.data());
    for (std::size_t i = 0; i < kOps; ++i) {
      EXPECT_EQ(bulk[i].state(), Rng::derive_stream(kSeed, batch, i).state());
    }
  }
}

TEST(RngTest, DeriveStreamsZeroCountIsANoOp) {
  Rng canary{123};
  const auto before = canary.state();
  Rng::derive_streams(5, 6, 7, 0, &canary);
  EXPECT_EQ(canary.state(), before);
}

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 0;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(splitmix64(s1), splitmix64(s2));
}

}  // namespace
}  // namespace now
