// Tests for the persistent, incrementally maintained PlanCache
// (core/plan_cache.hpp): exact |C|/n sampling per slot through the alias
// sampler, equality of an incrementally maintained cache with a fresh
// build, and the NowState-kept neighborhood populations the planners read.
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
    state.initialize_overlay(ids, rng);
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

/// Draws `draws` samples and checks each cluster's slot frequency against
/// its exact probability |C| / n within a 5-sigma binomial envelope; no
/// draw may land on a slot that holds no live cluster.
void expect_size_biased_law(const PlanCache& cache, const NowState& state,
                            std::uint64_t seed, std::size_t draws) {
  Rng rng{seed};
  std::vector<std::size_t> hits(state.slot_count(), 0);
  for (std::size_t i = 0; i < draws; ++i) {
    const std::uint32_t slot = cache.draw_biased(rng);
    ASSERT_LT(slot, hits.size()) << "draw " << i;
    ++hits[slot];
  }
  const double n = static_cast<double>(state.num_nodes());
  std::size_t live_hits = 0;
  for (const ClusterId c : state.cluster_ids()) {
    const std::size_t slot = state.slot_index(c);
    const std::size_t size = state.cluster_at(c).size();
    const double p = static_cast<double>(size) / n;
    const double expected = p * static_cast<double>(draws);
    const double sigma =
        std::sqrt(static_cast<double>(draws) * p * (1.0 - p));
    EXPECT_NEAR(static_cast<double>(hits[slot]), expected, 5.0 * sigma + 1.0)
        << "cluster slot " << slot << " size " << size;
    live_hits += hits[slot];
  }
  EXPECT_EQ(live_hits, draws);
}

TEST(PlanCacheTest, FreshBuildIsConsistentAndSamplesExactly) {
  Fixture fx{{40, 10, 25, 60, 5, 33, 27}};
  PlanCache cache;
  cache.build(fx.state, cache_params());
  EXPECT_TRUE(cache.consistent_with(fx.state));
  EXPECT_EQ(cache.total_weight, fx.state.num_nodes());
  expect_size_biased_law(cache, fx.state, 11, 200000);
}

TEST(PlanCacheTest, IncrementalDeltasKeepCacheExact) {
  Fixture fx{{30, 30, 30, 30, 30, 30}};
  PlanCache cache;
  cache.build(fx.state, cache_params());

  // Grow cluster 0 by 12, shrink cluster 3 by 9 — rebuild the alias
  // table as a structure-preserving commit does, then verify against a
  // fresh rebuild via the exhaustive consistency check (column order,
  // alias mass per cluster).
  fx.grow(fx.ids[0], 12);
  fx.shrink(fx.ids[3], 9);
  cache.rebuild_alias(fx.state);
  EXPECT_TRUE(cache.consistent_with(fx.state));
  EXPECT_EQ(cache.total_weight, fx.state.num_nodes());

  // The cache keeps no history: its sampler is the one a fresh build over
  // the current sizes makes, so both draw the same sequence, and that
  // sequence realizes the *current* law exactly.
  PlanCache fresh;
  fresh.build(fx.state, cache_params());
  EXPECT_EQ(cache.column_slot, fresh.column_slot);
  EXPECT_EQ(cache.alias_threshold, fresh.alias_threshold);
  EXPECT_EQ(cache.alias_slot, fresh.alias_slot);
  EXPECT_EQ(cache.total_weight, fresh.total_weight);
  Rng a{13};
  Rng b{13};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(cache.draw_biased(a), fresh.draw_biased(b)) << "draw " << i;
  }
  expect_size_biased_law(cache, fx.state, 13, 200000);
}

TEST(PlanCacheTest, NeighborhoodsTrackNeighborSizeChanges) {
  // The populations the planners charge are kept by NowState, not the
  // cache: every neighbor of cluster 1 must see its neighborhood
  // population grow by exactly the delta; non-neighbors must not.
  Fixture fx{{20, 20, 20, 20}};
  const ClusterId changed = fx.ids[1];
  std::vector<std::uint64_t> before;
  for (const ClusterId c : fx.ids) {
    EXPECT_EQ(fx.state.neighborhood_population(c),
              count_neighborhood_population(fx.state, c));
    before.push_back(fx.state.neighborhood_population(c));
  }
  fx.grow(changed, 7);
  for (std::size_t i = 0; i < fx.ids.size(); ++i) {
    const bool neighbor = fx.state.overlay().graph().has_edge(
        changed.value(), fx.ids[i].value());
    EXPECT_EQ(fx.state.neighborhood_population(fx.ids[i]),
              before[i] + (neighbor ? 7u : 0u))
        << "cluster " << i;
    EXPECT_EQ(fx.state.neighborhood_population_at_slot(
                  fx.state.slot_index(fx.ids[i])),
              count_neighborhood_population(fx.state, fx.ids[i]));
  }
  PlanCache cache;
  cache.build(fx.state, cache_params());
  EXPECT_TRUE(cache.consistent_with(fx.state));
}

}  // namespace
}  // namespace now::core
