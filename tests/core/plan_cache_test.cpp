// Tests for the persistent, incrementally maintained PlanCache
// (core/plan_cache.hpp): exact |C|/n sampling through the alias sampler,
// incremental neighborhood maintenance, and equality of an incrementally
// maintained cache with a fresh build.
#include "core/plan_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/state.hpp"

namespace now::core {
namespace {

/// A standalone partition: `sizes[i]` members in cluster i, overlay wired.
struct Fixture {
  over::OverParams over_params;
  NowState state;
  std::vector<ClusterId> ids;
  NodeId::value_type next_node = 0;

  explicit Fixture(const std::vector<std::size_t>& sizes)
      : state(over_params) {
    Rng rng{7};
    for (const std::size_t size : sizes) {
      ids.push_back(state.create_cluster());
      grow(ids.back(), size);
    }
    state.overlay.initialize(ids, rng);
  }

  void grow(ClusterId c, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId node{next_node++};
      state.register_node(node);
      state.add_member(c, node);
    }
  }

  void shrink(ClusterId c, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId node = state.cluster_at(c).members().back();
      state.remove_member(c, node);
      state.unregister_node(node);
    }
  }
};

NowParams cache_params() {
  NowParams p;
  p.walk_mode = WalkMode::kSampleExact;
  return p;
}

/// Draws `draws` samples and checks each cluster's frequency against its
/// exact probability |C| / n within a 5-sigma binomial envelope.
void expect_size_biased_law(const PlanCache& cache, std::uint64_t seed,
                            std::size_t draws) {
  Rng rng{seed};
  std::vector<std::size_t> hits(cache.id_by_index.size(), 0);
  for (std::size_t i = 0; i < draws; ++i) ++hits[cache.draw_biased(rng)];
  const double n = static_cast<double>(cache.total_weight);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const double p = static_cast<double>(cache.current_weight[i]) / n;
    const double expected = p * static_cast<double>(draws);
    const double sigma =
        std::sqrt(static_cast<double>(draws) * p * (1.0 - p));
    EXPECT_NEAR(static_cast<double>(hits[i]), expected, 5.0 * sigma + 1.0)
        << "cluster index " << i << " weight " << cache.current_weight[i];
  }
}

TEST(PlanCacheTest, FreshBuildIsConsistentAndSamplesExactly) {
  Fixture fx{{40, 10, 25, 60, 5, 33, 27}};
  PlanCache cache;
  cache.build(fx.state, cache_params());
  EXPECT_TRUE(cache.consistent_with(fx.state));
  EXPECT_EQ(cache.total_weight, fx.state.num_nodes());
  expect_size_biased_law(cache, 11, 200000);
}

TEST(PlanCacheTest, IncrementalDeltasKeepCacheExact) {
  Fixture fx{{30, 30, 30, 30, 30, 30}};
  PlanCache cache;
  cache.build(fx.state, cache_params());

  // Grow cluster 0 by 12, shrink cluster 3 by 9 — apply the same deltas
  // the commit would hand the cache, then verify against a fresh rebuild
  // via the exhaustive consistency check (sizes, neighborhoods, tables).
  fx.grow(fx.ids[0], 12);
  fx.shrink(fx.ids[3], 9);
  const std::vector<std::pair<std::size_t, std::int64_t>> deltas = {
      {fx.state.slot_index(fx.ids[3]), -9},
      {fx.state.slot_index(fx.ids[0]), 12}};
  cache.apply_size_deltas(fx.state, deltas);
  EXPECT_TRUE(cache.consistent_with(fx.state));
  EXPECT_EQ(cache.total_weight, fx.state.num_nodes());

  // The cache keeps no history: its sampler is the one a fresh build over
  // the current sizes makes, so both draw the same sequence, and that
  // sequence realizes the *current* law exactly.
  PlanCache fresh;
  fresh.build(fx.state, cache_params());
  EXPECT_EQ(cache.alias_threshold, fresh.alias_threshold);
  EXPECT_EQ(cache.alias_index, fresh.alias_index);
  Rng a{13};
  Rng b{13};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(cache.draw_biased(a), fresh.draw_biased(b)) << "draw " << i;
  }
  expect_size_biased_law(cache, 13, 200000);
}

TEST(PlanCacheTest, NeighborhoodsTrackNeighborSizeChanges) {
  Fixture fx{{20, 20, 20, 20}};
  PlanCache cache;
  cache.build(fx.state, cache_params());
  // Every neighbor of cluster 1 must see its neighborhood population grow
  // by exactly the delta; non-neighbors must not.
  const ClusterId changed = fx.ids[1];
  std::vector<std::uint64_t> before;
  for (const ClusterId c : fx.ids) {
    before.push_back(cache.neighborhood(fx.state, c));
  }
  fx.grow(changed, 7);
  const std::pair<std::size_t, std::int64_t> delta{
      fx.state.slot_index(changed), 7};
  cache.apply_size_deltas(fx.state, {&delta, 1});
  for (std::size_t i = 0; i < fx.ids.size(); ++i) {
    const bool neighbor = fx.state.overlay.graph().has_edge(
        changed.value(), fx.ids[i].value());
    EXPECT_EQ(cache.neighborhood(fx.state, fx.ids[i]),
              before[i] + (neighbor ? 7u : 0u))
        << "cluster " << i;
  }
  EXPECT_TRUE(cache.consistent_with(fx.state));
}

}  // namespace
}  // namespace now::core
