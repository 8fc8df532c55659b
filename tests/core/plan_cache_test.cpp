// Tests for the PlanCache the batch engine builds at every batch start
// (core/plan_cache.hpp): the exact alias mass per slot, |C|/n sampling
// per slot through the alias sampler, and the NowState-kept neighborhood
// populations the planners read.
#include "core/plan_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
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

/// The exact construction: one column per live cluster in cluster_ids()
/// order, and every column carries total_weight units (its threshold to its
/// own slot, the rest to its alias), so summed per slot they must come to
/// exactly |C| * k.
void expect_exact_alias_mass(const PlanCache& cache, const NowState& state) {
  const std::span<const ClusterId> ids = state.cluster_ids();
  const std::size_t k = ids.size();
  ASSERT_EQ(cache.column_slot.size(), k);
  ASSERT_EQ(cache.alias_threshold.size(), k);
  ASSERT_EQ(cache.alias_slot.size(), k);
  EXPECT_EQ(cache.total_weight, state.num_nodes());
  std::vector<std::uint64_t> mass(state.slot_count(), 0);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t slot = state.slot_index(ids[i]);
    EXPECT_EQ(cache.column_slot[i], slot) << "column " << i;
    ASSERT_LT(cache.alias_slot[i], mass.size()) << "column " << i;
    ASSERT_LE(cache.alias_threshold[i], cache.total_weight) << "column " << i;
    mass[slot] += cache.alias_threshold[i];
    mass[cache.alias_slot[i]] += cache.total_weight - cache.alias_threshold[i];
  }
  for (const ClusterId c : ids) {
    EXPECT_EQ(mass[state.slot_index(c)], state.cluster_at(c).size() * k)
        << "cluster " << c.value();
  }
}

TEST(PlanCacheTest, BuildHasExactAliasMassAndSamplesExactly) {
  // Uneven sizes, then an even partition after one cluster grew and
  // another shrank (the sizes a batch's stage 2 leaves behind).
  Fixture uneven{{40, 10, 25, 60, 5, 33, 27}};
  Fixture changed{{30, 30, 30, 30, 30, 30}};
  changed.grow(changed.ids[0], 12);
  changed.shrink(changed.ids[3], 9);
  std::uint64_t seed = 11;
  for (const Fixture* fx : {&uneven, &changed}) {
    PlanCache cache;
    cache.build(fx->state, cache_params());
    expect_exact_alias_mass(cache, fx->state);
    expect_size_biased_law(cache, fx->state, seed++, 200000);
  }
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
  expect_exact_alias_mass(cache, fx.state);
}

}  // namespace
}  // namespace now::core
