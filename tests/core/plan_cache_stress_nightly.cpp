// Nightly large-n stress of the plan-phase machinery (DESIGN.md §11): a
// million-node deployment churned through structure-preserving batches,
// verifying after every batch that the incrementally maintained PlanCache
// (column order, alias mass over the cluster sizes) still matches a
// from-scratch rebuild, and that the epoch-stamped batch scratch keeps the
// state invariants (the kept neighborhood populations included) intact at
// a scale the tier-1 suite never reaches.
//
// NOT part of the ctest tier-1 suite: the `_nightly.cpp` suffix escapes the
// `tests/**/*_test.cpp` glob; CMake builds it as `plan_cache_stress_nightly`
// (so it cannot rot) and .github/workflows/nightly.yml executes it.
#include <gtest/gtest.h>

#include <cstddef>

#include "core/now.hpp"

namespace now::core {
namespace {

TEST(PlanCacheStressNightly, MillionNodeChurnKeepsCacheConsistent) {
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
  // time, so stage 2 folds thousands of per-slot deltas into the
  // populations and the carried cache rebuilds only its alias table
  // between full rebuilds — the exact path the maintenance must keep
  // exact.
  Rng victim_rng{4242};
  constexpr std::size_t kBatches = 12;
  constexpr std::size_t kOps = 5000;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const auto leaves =
        system.state().sample_distinct_nodes(victim_rng, kOps);
    const auto [joined, report] =
        system.step_parallel_mixed(kOps, kOps / 50, leaves, 8);
    ASSERT_EQ(joined.size(), kOps);
    ASSERT_TRUE(system.plan_cache_consistent())
        << "batch " << b << ": incremental PlanCache drifted from rebuild";
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
