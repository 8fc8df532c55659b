// Nightly large-n stress of the batch engine (DESIGN.md §11): a
// million-node deployment churned through mostly structure-preserving
// batches, verifying that the epoch-stamped batch scratch keeps the state
// invariants (the kept neighborhood populations included) intact at a
// scale the tier-1 suite never reaches, and that the footprint stays
// linear in n.
//
// NOT part of the ctest tier-1 suite: the `_nightly.cpp` suffix escapes the
// `tests/**/*_test.cpp` glob; CMake builds it as `batch_stress_nightly`
// (so it cannot rot) and .github/workflows/nightly.yml executes it.
#include <gtest/gtest.h>

#include <cstddef>

#include "core/now.hpp"

namespace now::core {
namespace {

TEST(BatchStressNightly, MillionNodeChurnKeepsInvariants) {
  NowParams params;
  params.max_size = 1 << 14;
  params.walk_mode = WalkMode::kSampleExact;
  params.k = 10;
  params.tau = 0.05;
  Metrics metrics;
  NowSystem system(params, metrics, 20240808);
  constexpr std::size_t kN = 1000000;
  system.initialize(kN, kN / 20, InitTopology::kModeledSparse);
  ASSERT_TRUE(system.check().ok);

  // Size-neutral churn keeps the batches structure-preserving most of the
  // time, so stage 2 folds thousands of per-slot deltas into the sizes and
  // populations, and the next batch plans over them.
  Rng victim_rng{4242};
  constexpr std::size_t kBatches = 12;
  constexpr std::size_t kOps = 5000;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const auto leaves =
        system.state().sample_distinct_nodes(victim_rng, kOps);
    const auto [joined, report] =
        system.step_parallel_mixed(kOps, kOps / 50, leaves, 8);
    ASSERT_EQ(joined.size(), kOps);
    EXPECT_GT(report.wave_count, 0u);
  }
  const InvariantReport report = system.check();
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(system.num_nodes(), kN);

  // Memory stays linear with small constants at this scale: the footprint
  // scalar BENCH_micro tracks must not silently regress superlinear.
  const double bytes_per_node =
      static_cast<double>(system.footprint_bytes()) /
      static_cast<double>(system.num_nodes());
  EXPECT_LT(bytes_per_node, 256.0);
}

}  // namespace
}  // namespace now::core
