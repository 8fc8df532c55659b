// Tests for the flat NowState storage: slot reuse, membership bookkeeping,
// and — most importantly — that the Fenwick-backed size-biased cluster draw
// realizes exactly the |C| / n law the old linear-scan implementation did.
#include "core/state.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/now.hpp"

namespace now::core {
namespace {

over::OverParams small_over() {
  over::OverParams p;
  p.max_size = 1 << 12;
  return p;
}

/// The pre-refactor implementation, kept verbatim as the reference law:
/// draw target uniform in [0, n), scan clusters in ascending id order.
ClusterId size_biased_linear_scan(const NowState& state, Rng& rng) {
  std::vector<ClusterId> ids(state.cluster_ids().begin(),
                             state.cluster_ids().end());
  std::sort(ids.begin(), ids.end());
  std::uint64_t target = rng.uniform(state.num_nodes());
  for (const ClusterId id : ids) {
    const auto size =
        static_cast<std::uint64_t>(state.cluster_at(id).size());
    if (target < size) return id;
    target -= size;
  }
  ADD_FAILURE() << "cluster sizes inconsistent with node count";
  return ids.front();
}

/// A small partition with uneven cluster sizes and at least one reused slot
/// (cluster destroyed, then a new one created).
NowState make_uneven_state() {
  NowState state{small_over()};
  const std::vector<std::size_t> sizes = {3, 17, 42, 8, 30};
  for (const std::size_t size : sizes) {
    const ClusterId c = state.create_cluster();
    for (std::size_t i = 0; i < size; ++i) {
      const NodeId node = state.fresh_node_id();
      state.register_node(node);
      state.add_member(c, node);
    }
  }
  // Destroy the third cluster and replace it, exercising the free list.
  const ClusterId doomed = state.cluster_ids()[2];
  const auto moving_view = state.cluster_at(doomed).members();
  const std::vector<NodeId> moving(moving_view.begin(), moving_view.end());
  const ClusterId refuge = state.cluster_ids()[0];
  for (const NodeId m : moving) state.move_node(m, doomed, refuge);
  state.destroy_cluster(doomed);
  const ClusterId fresh = state.create_cluster();
  for (std::size_t i = 0; i < 12; ++i) {
    const NodeId node = state.fresh_node_id();
    state.register_node(node);
    state.add_member(fresh, node);
  }
  return state;
}

TEST(StateSamplingTest, SizeBiasedMatchesLinearScanReferenceOnFixedSeed) {
  const NowState state = make_uneven_state();
  const std::size_t n = state.num_nodes();
  ASSERT_GT(n, 0u);

  constexpr int kDraws = 200000;
  std::map<ClusterId, double> fenwick_freq;
  std::map<ClusterId, double> reference_freq;
  {
    Rng rng{12345};
    for (int i = 0; i < kDraws; ++i) {
      fenwick_freq[state.random_cluster_size_biased(rng)] += 1.0 / kDraws;
    }
  }
  {
    Rng rng{12345};  // same seed: both consume one uniform draw per sample
    for (int i = 0; i < kDraws; ++i) {
      reference_freq[size_biased_linear_scan(state, rng)] += 1.0 / kDraws;
    }
  }

  for (const ClusterId id : state.cluster_ids()) {
    const double expected =
        static_cast<double>(state.cluster_at(id).size()) /
        static_cast<double>(n);
    // Both samplers must realize the |C| / n law...
    EXPECT_NEAR(fenwick_freq[id], expected, 0.005) << "cluster " << id;
    EXPECT_NEAR(reference_freq[id], expected, 0.005) << "cluster " << id;
    // ... and agree with each other within sampling noise.
    EXPECT_NEAR(fenwick_freq[id], reference_freq[id], 0.007)
        << "cluster " << id;
  }
}

TEST(StateSamplingTest, UniformClusterDrawCoversAllClustersEvenly) {
  const NowState state = make_uneven_state();
  constexpr int kDraws = 60000;
  Rng rng{77};
  std::map<ClusterId, int> counts;
  for (int i = 0; i < kDraws; ++i) {
    counts[state.random_cluster_uniform(rng)] += 1;
  }
  const double expected =
      static_cast<double>(kDraws) /
      static_cast<double>(state.num_clusters());
  for (const ClusterId id : state.cluster_ids()) {
    EXPECT_NEAR(counts[id], expected, 0.1 * expected) << "cluster " << id;
  }
}

TEST(StateTest, SlotReuseKeepsIdsDistinctAndSizesConsistent) {
  NowState state{small_over()};
  const ClusterId a = state.create_cluster();
  const ClusterId b = state.create_cluster();
  ASSERT_NE(a, b);

  const NodeId n1 = state.fresh_node_id();
  state.register_node(n1);
  state.add_member(a, n1);
  EXPECT_EQ(state.home_of(n1), a);
  EXPECT_EQ(state.num_nodes(), 1u);

  state.move_node(n1, a, b);
  EXPECT_EQ(state.home_of(n1), b);
  EXPECT_EQ(state.cluster_at(a).size(), 0u);
  EXPECT_EQ(state.cluster_at(b).size(), 1u);

  state.destroy_cluster(a);
  EXPECT_FALSE(state.has_cluster(a));
  EXPECT_TRUE(state.has_cluster(b));
  EXPECT_EQ(state.num_clusters(), 1u);

  // The freed slot is reused, but the id is fresh — never recycled.
  const ClusterId c = state.create_cluster();
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  EXPECT_TRUE(state.has_cluster(c));
  EXPECT_EQ(state.num_clusters(), 2u);

  // Size-biased sampling only ever returns live populated clusters.
  Rng rng{5};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(state.random_cluster_size_biased(rng), b);
  }
}

TEST(StateTest, StaleClusterIdThrowsLikeTheOldOrderedMap) {
  NowState state{small_over()};
  const ClusterId c = state.create_cluster();
  state.destroy_cluster(c);
  // The pre-refactor std::map::at contract: stale ids raise, in release
  // builds too, instead of reading out of bounds.
  EXPECT_THROW((void)state.cluster_at(c), std::out_of_range);
  EXPECT_THROW(state.add_member(c, NodeId{0}), std::out_of_range);
}

TEST(StateTest, RemoveMemberClearsPlacement) {
  NowState state{small_over()};
  const ClusterId c = state.create_cluster();
  const NodeId node = state.fresh_node_id();
  state.register_node(node);
  state.add_member(c, node);
  EXPECT_TRUE(state.is_placed(node));

  state.remove_member(c, node);
  EXPECT_FALSE(state.is_placed(node));
  EXPECT_EQ(state.home_of(node), ClusterId::invalid());
  EXPECT_EQ(state.num_nodes(), 0u);
  // Still registered as live until unregister_node (merge-dissolve window).
  EXPECT_EQ(state.live_nodes().size(), 1u);
  state.unregister_node(node);
  EXPECT_TRUE(state.live_nodes().empty());
}

TEST(StateTest, ManyClustersGrowTheFenwickMirror) {
  NowState state{small_over()};
  // Push well past the initial Fenwick capacity to exercise regrowth.
  std::vector<ClusterId> ids;
  for (int i = 0; i < 100; ++i) {
    const ClusterId c = state.create_cluster();
    ids.push_back(c);
    const std::size_t size = 1 + static_cast<std::size_t>(i % 7);
    for (std::size_t j = 0; j < size; ++j) {
      const NodeId node = state.fresh_node_id();
      state.register_node(node);
      state.add_member(c, node);
    }
  }
  Rng rng{9};
  std::map<ClusterId, int> seen;
  for (int i = 0; i < 20000; ++i) {
    seen[state.random_cluster_size_biased(rng)] += 1;
  }
  // Every cluster is reachable; a 7-member cluster is drawn ~7x as often
  // as a 1-member one.
  for (const ClusterId id : ids) EXPECT_GT(seen[id], 0) << id;
}

/// p_C by recount: Byzantine members over size, 0 for an empty cluster.
double recount_fraction(const NowState& state, ClusterId id) {
  const auto& c = state.cluster_at(id);
  if (c.size() == 0) return 0.0;
  return static_cast<double>(cluster::byzantine_count(c, state.byzantine)) /
         static_cast<double>(c.size());
}

/// The rule most_byzantine_cluster keeps, by recount: the first maximum of
/// count / size (0 for an empty cluster) in cluster_ids() order.
ClusterId most_byzantine_by_recount(const NowState& state) {
  ClusterId best = ClusterId::invalid();
  double best_fraction = -1.0;
  for (const ClusterId id : state.cluster_ids()) {
    const double fraction = recount_fraction(state, id);
    if (fraction > best_fraction) {
      best_fraction = fraction;
      best = id;
    }
  }
  return best;
}

TEST(StateTest, MostByzantineClusterIsTheFirstMaximumWithTies) {
  NowState state{small_over()};
  EXPECT_EQ(state.most_byzantine_cluster(), ClusterId::invalid());
  // Sizes 3, 6, 9 and 4 (three of them can tie at 1/3) plus an empty
  // cluster; the slot of a destroyed cluster is reused so cluster_ids()
  // is not in id order.
  std::vector<ClusterId> ids;
  const std::size_t sizes[] = {5, 3, 6, 9, 4, 0};
  for (const std::size_t size : sizes) {
    const ClusterId c = state.create_cluster();
    ids.push_back(c);
    for (std::size_t i = 0; i < size; ++i) {
      const NodeId node = state.fresh_node_id();
      state.register_node(node);
      state.add_member(c, node);
    }
  }
  const auto doomed_view = state.cluster_at(ids[0]).members();
  const std::vector<NodeId> doomed(doomed_view.begin(), doomed_view.end());
  for (const NodeId m : doomed) state.move_node(m, ids[0], ids[4]);
  state.destroy_cluster(ids[0]);
  (void)state.create_cluster();
  EXPECT_EQ(state.most_byzantine_cluster(), state.cluster_ids().front());

  Rng rng{31};
  int tied_trials = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Flip one random node; small clusters make exact ties frequent.
    const NodeId node = state.random_node(rng);
    state.set_byzantine(node, !state.byzantine.contains(node));
    for (const ClusterId id : state.cluster_ids()) {
      ASSERT_EQ(state.byzantine_count(id),
                cluster::byzantine_count(state.cluster_at(id),
                                         state.byzantine));
      ASSERT_EQ(state.byzantine_fraction(id), recount_fraction(state, id));
    }
    ASSERT_EQ(state.most_byzantine_cluster(), most_byzantine_by_recount(state))
        << "trial " << trial;
    const double top =
        recount_fraction(state, state.most_byzantine_cluster());
    int at_top = 0;
    for (const ClusterId id : state.cluster_ids()) {
      if (recount_fraction(state, id) == top) ++at_top;
    }
    if (at_top > 1) ++tied_trials;
  }
  EXPECT_GT(tied_trials, 0);  // the first-maximum rule was exercised
}

}  // namespace
}  // namespace now::core
