// Tests for the flat NowState storage: slot reuse, membership bookkeeping,
// and — most importantly — that the Fenwick-backed size-biased cluster draw
// realizes exactly the |C| / n law the old linear-scan implementation did.
#include "core/state.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <utility>
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

/// Two clusters of `size` members each, ids interleaved (even ids in the
/// first, odd ids in the second) so swaps land at every kind of position.
struct TwoClusters {
  NowState state{small_over()};
  ClusterId a;
  ClusterId b;
  explicit TwoClusters(std::size_t size) {
    a = state.create_cluster();
    b = state.create_cluster();
    for (std::size_t i = 0; i < 2 * size; ++i) {
      const NodeId node = state.fresh_node_id();
      state.register_node(node);
      state.add_member(i % 2 == 0 ? a : b, node);
    }
  }
};

bool strictly_sorted(std::span<const NodeId> members) {
  return std::adjacent_find(members.begin(), members.end(),
                            [](NodeId l, NodeId r) { return !(l < r); }) ==
         members.end();
}

TEST(StateTest, SwapMembersKeepsExtentsSortedAndSizesFixed) {
  TwoClusters fx{20};
  NowState& state = fx.state;
  const std::size_t slot_a = state.slot_index(fx.a);
  const std::size_t slot_b = state.slot_index(fx.b);
  const auto draws = [&state] {
    Rng rng{3};
    std::vector<ClusterId> out;
    for (int i = 0; i < 500; ++i) {
      out.push_back(state.random_cluster_size_biased(rng));
    }
    return out;
  };
  const std::vector<ClusterId> draws_before = draws();
  const auto members_of = [&state](ClusterId c) {
    const auto m = state.cluster_at(c).members();
    return std::set<NodeId>(m.begin(), m.end());
  };
  std::set<NodeId> ref_a = members_of(fx.a);
  std::set<NodeId> ref_b = members_of(fx.b);
  Rng rng{4};
  for (int i = 0; i < 400; ++i) {
    // Alternate the direction so both extents play both roles.
    const bool forward = i % 2 == 0;
    const ClusterId c = forward ? fx.a : fx.b;
    const ClusterId partner = forward ? fx.b : fx.a;
    const NodeId x = state.cluster_at(c).random_member(rng);
    const NodeId y = state.cluster_at(partner).random_member(rng);
    state.swap_members(x, c, y, partner);
    std::set<NodeId>& ref_c = forward ? ref_a : ref_b;
    std::set<NodeId>& ref_p = forward ? ref_b : ref_a;
    ref_c.erase(x);
    ref_c.insert(y);
    ref_p.erase(y);
    ref_p.insert(x);
    ASSERT_TRUE(strictly_sorted(state.cluster_at(fx.a).members())) << i;
    ASSERT_TRUE(strictly_sorted(state.cluster_at(fx.b).members())) << i;
    ASSERT_EQ(members_of(fx.a), ref_a) << i;
    ASSERT_EQ(members_of(fx.b), ref_b) << i;
    ASSERT_EQ(state.home_of(x), partner);
    ASSERT_EQ(state.home_of(y), c);
    ASSERT_EQ(state.member_slab().size(slot_a), 20u);
    ASSERT_EQ(state.member_slab().size(slot_b), 20u);
  }
  EXPECT_EQ(state.num_nodes(), 40u);
  EXPECT_EQ(state.member_slab().live(), 40u);
  // The Fenwick mirror was never touched: the size-biased draws replay.
  EXPECT_EQ(draws(), draws_before);
}

TEST(StateTest, SwapMembersMovesByzantineCountsOnlyForMixedMarks) {
  for (const bool x_byzantine : {false, true}) {
    for (const bool y_byzantine : {false, true}) {
      TwoClusters fx{6};
      NowState& state = fx.state;
      // One more Byzantine member on each side, so counts are never zero.
      state.set_byzantine(state.cluster_at(fx.a).member_at(0), true);
      state.set_byzantine(state.cluster_at(fx.b).member_at(0), true);
      const NodeId x = state.cluster_at(fx.a).member_at(3);
      const NodeId y = state.cluster_at(fx.b).member_at(4);
      state.set_byzantine(x, x_byzantine);
      state.set_byzantine(y, y_byzantine);
      const std::size_t count_a = state.byzantine_count(fx.a);
      const std::size_t count_b = state.byzantine_count(fx.b);
      state.swap_members(x, fx.a, y, fx.b);
      const std::size_t xb = x_byzantine ? 1 : 0;
      const std::size_t yb = y_byzantine ? 1 : 0;
      EXPECT_EQ(state.byzantine_count(fx.a), count_a - xb + yb)
          << x_byzantine << y_byzantine;
      EXPECT_EQ(state.byzantine_count(fx.b), count_b - yb + xb)
          << x_byzantine << y_byzantine;
      for (const ClusterId c : {fx.a, fx.b}) {
        EXPECT_EQ(state.byzantine_count(c),
                  cluster::byzantine_count(state.cluster_at(c),
                                           state.byzantine));
      }
    }
  }
}

TEST(StateTest, SwapIntoFullExtentDoesNotRelocate) {
  // cap_for(1) = 9: nine members fill each extent exactly.
  TwoClusters fx{9};
  NowState& state = fx.state;
  const cluster::MemberSlab& slab = state.member_slab();
  const std::size_t slot_a = state.slot_index(fx.a);
  const std::size_t slot_b = state.slot_index(fx.b);
  ASSERT_EQ(slab.extent(slot_a).size, slab.extent(slot_a).cap);
  ASSERT_EQ(slab.extent(slot_b).size, slab.extent(slot_b).cap);
  const cluster::MemberSlab::Extent before_a = slab.extent(slot_a);
  const cluster::MemberSlab::Extent before_b = slab.extent(slot_b);
  const std::uint64_t tail = slab.tail();
  const std::uint64_t compactions = slab.compaction_count();
  // The smallest member of a for the largest of b, and back: each replace
  // shifts the whole extent.
  const NodeId x = state.cluster_at(fx.a).member_at(0);
  const NodeId y = state.cluster_at(fx.b).member_at(8);
  state.swap_members(x, fx.a, y, fx.b);
  state.swap_members(y, fx.a, x, fx.b);
  state.swap_members(state.cluster_at(fx.b).member_at(8), fx.b,
                     state.cluster_at(fx.a).member_at(0), fx.a);
  for (const auto& [slot, before] :
       {std::pair{slot_a, before_a}, std::pair{slot_b, before_b}}) {
    EXPECT_EQ(slab.extent(slot).first, before.first);
    EXPECT_EQ(slab.extent(slot).cap, before.cap);
    EXPECT_EQ(slab.extent(slot).size, before.size);
    EXPECT_TRUE(strictly_sorted(slab.members(slot)));
  }
  EXPECT_EQ(slab.tail(), tail);
  EXPECT_EQ(slab.compaction_count(), compactions);
}

/// Clusters whose kept neighborhood population differs from the recount.
std::size_t population_drifts(const NowState& state) {
  std::size_t drifts = 0;
  for (const ClusterId id : state.cluster_ids()) {
    if (state.neighborhood_population(id) !=
        count_neighborhood_population(state, id)) {
      ++drifts;
    }
  }
  return drifts;
}

TEST(StateTest, NeighborhoodPopulationsMatchRecountAfterEverySequentialOp) {
  // Sequential joins and leaves change sizes (add/remove/move), swap
  // members (no size change) and, through splits and merges, rewire the
  // overlay (add_overlay_vertex / remove_overlay_vertex). After every
  // operation each kept population must equal the adjacency recount.
  for (const MergePolicy policy :
       {MergePolicy::kDissolve, MergePolicy::kAbsorb}) {
    const char* where =
        policy == MergePolicy::kDissolve ? "dissolve" : "absorb";
    NowParams p;
    p.max_size = 1 << 10;
    p.merge_policy = policy;
    Metrics metrics;
    NowSystem system{p, metrics, 41};
    system.initialize(240, 20, InitTopology::kModeledSparse);
    ASSERT_EQ(population_drifts(system.state()), 0u) << where;
    Rng rng{42};
    std::size_t splits = 0;
    std::size_t merges = 0;
    for (int op = 0; op < 600; ++op) {
      // Shrink for 150 ops, grow for 300, shrink again: merges, splits,
      // merges.
      const bool grow = op >= 150 && op < 450;
      if (grow) {
        const auto [node, report] = system.join(op % 7 == 0);
        splits += report.splits;
        merges += report.merges;
      } else {
        const auto report = system.leave(system.state().random_node(rng));
        splits += report.splits;
        merges += report.merges;
      }
      ASSERT_EQ(population_drifts(system.state()), 0u)
          << where << " op " << op;
    }
    EXPECT_GT(splits, 0u) << where;
    EXPECT_GT(merges, 0u) << where;
    EXPECT_TRUE(system.check().ok) << where;
  }
}

}  // namespace
}  // namespace now::core
