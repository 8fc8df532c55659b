// Tests for the flat extent-based membership arena (cluster/member_slab.hpp,
// DESIGN.md §9): the extent/cap policy, the parallel-safe try_assign + spill
// protocol, compaction (trigger, packing, and — the tentpole contract — its
// UNOBSERVABILITY to everything RNG-visible), slab-geometry bit-identity
// across shard counts and resolve modes, and snapshot round-trips of a
// fragmented slab.
#include "cluster/member_slab.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/now.hpp"
#include "core/state.hpp"

namespace now::core {
namespace {

NowParams slab_params() {
  NowParams p;
  p.max_size = 1 << 12;
  p.walk_mode = WalkMode::kSampleExact;
  p.k = 10;
  p.tau = 0.10;
  return p;
}

over::OverParams small_over() {
  over::OverParams p;
  p.max_size = 1 << 12;
  return p;
}

/// Full slab consistency sweep against the cluster partition: every live
/// cluster's extent is in bounds, sorted, sized consistently and disjoint
/// from every other extent; the live counter matches; and at rest the
/// compaction trigger has been honored (every mutation path ends in
/// maybe_compact).
void expect_slab_consistent(const NowState& state) {
  const cluster::MemberSlab& slab = state.member_slab();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  std::uint64_t live = 0;
  for (const ClusterId id : state.cluster_ids()) {
    const auto& c = state.cluster_at(id);
    const auto& e = slab.extent(state.slot_index(id));
    ASSERT_EQ(c.size(), static_cast<std::size_t>(e.size)) << "cluster " << id;
    ASSERT_LE(e.size, e.cap) << "cluster " << id;
    ASSERT_LE(e.first + e.cap, slab.tail()) << "cluster " << id;
    const auto members = c.members();
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()))
        << "cluster " << id;
    if (e.cap > 0) ranges.emplace_back(e.first, e.first + e.cap);
    live += e.size;
  }
  EXPECT_EQ(live, slab.live());
  std::sort(ranges.begin(), ranges.end());
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    ASSERT_LE(ranges[i - 1].second, ranges[i].first) << "extents overlap";
  }
  EXPECT_FALSE(slab.compaction_due());
}

/// The slab's full observable geometry: the allocated prefix plus every
/// slot's (first, size, cap) triple. Bit-identity of this signature is the
/// layout-determinism contract.
struct SlabSignature {
  std::uint64_t tail = 0;
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> extents;
  bool operator==(const SlabSignature&) const = default;
};

SlabSignature slab_signature(const NowState& state) {
  const cluster::MemberSlab& slab = state.member_slab();
  SlabSignature sig;
  sig.tail = slab.tail();
  for (std::size_t s = 0; s < slab.slot_count(); ++s) {
    const auto& e = slab.extent(s);
    sig.extents.emplace_back(e.first, e.size, e.cap);
  }
  return sig;
}

/// Sorted (cluster id, size) pairs — the full partition signature.
std::vector<std::pair<std::uint64_t, std::size_t>> partition_signature(
    const NowSystem& system) {
  std::vector<std::pair<std::uint64_t, std::size_t>> sig;
  for (const ClusterId id : system.state().cluster_ids()) {
    sig.emplace_back(id.value(), system.state().cluster_at(id).size());
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

std::pair<std::vector<NodeId>, OpReport> drive_batch(NowSystem& system,
                                                     Rng& victim_rng,
                                                     std::size_t shards) {
  const auto leaves = system.state().sample_distinct_nodes(victim_rng, 8);
  return system.step_parallel_mixed(8, 1, leaves, shards);
}

// --------------------------------------------------------------- slab units

TEST(MemberSlabTest, InsertEraseKeepSortedExtents) {
  cluster::MemberSlab slab;
  slab.acquire_slot(0);
  for (const std::uint64_t v : {9u, 1u, 5u, 3u, 7u}) {
    slab.insert_sorted(0, NodeId{v});
  }
  const auto members = slab.members(0);
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  EXPECT_EQ(slab.size(0), 5u);
  EXPECT_EQ(slab.live(), 5u);
  slab.erase_sorted(0, NodeId{5});
  EXPECT_EQ(slab.size(0), 4u);
  EXPECT_EQ(slab.live(), 4u);
  const auto after = slab.members(0);
  EXPECT_TRUE(std::is_sorted(after.begin(), after.end()));
  EXPECT_FALSE(std::binary_search(after.begin(), after.end(), NodeId{5}));
}

TEST(MemberSlabTest, CapPolicyGrantsHeadroomAndRelocationMovesToTail) {
  cluster::MemberSlab slab;
  slab.acquire_slot(0);
  slab.acquire_slot(1);
  slab.insert_sorted(0, NodeId{1});
  // First insert allocates cap_for(1) = 9 at the tail.
  EXPECT_EQ(slab.extent(0).cap, cluster::MemberSlab::cap_for(1));
  const std::uint64_t tail_before = slab.tail();
  EXPECT_EQ(tail_before, slab.extent(0).cap);
  // A second slot carves strictly after the first.
  slab.insert_sorted(1, NodeId{2});
  EXPECT_EQ(slab.extent(1).first, tail_before);
  // Fill slot 0 past its cap: the extent relocates to a fresh tail range,
  // leaving its old range behind as dead space.
  const std::uint64_t old_first = slab.extent(0).first;
  for (std::uint64_t v = 10; slab.extent(0).first == old_first; ++v) {
    slab.insert_sorted(0, NodeId{v});
  }
  EXPECT_GT(slab.extent(0).first, slab.extent(1).first);
  const auto members = slab.members(0);
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
}

TEST(MemberSlabTest, TryAssignFailsBeyondCapAndNeverMoves) {
  cluster::MemberSlab slab;
  slab.acquire_slot(0);
  for (std::uint64_t v = 0; v < 4; ++v) slab.insert_sorted(0, NodeId{v});
  const auto extent_before = slab.extent(0);
  const std::uint64_t tail_before = slab.tail();

  // Within cap: succeeds in place.
  std::vector<NodeId> fits;
  for (std::uint64_t v = 100; v < 100 + extent_before.cap; ++v) {
    fits.emplace_back(v);
  }
  ASSERT_TRUE(slab.try_assign(0, fits));
  EXPECT_EQ(slab.extent(0).first, extent_before.first);
  EXPECT_EQ(slab.extent(0).cap, extent_before.cap);
  EXPECT_EQ(slab.tail(), tail_before);
  EXPECT_EQ(slab.live(), fits.size());

  // Beyond cap: refused, nothing changes.
  std::vector<NodeId> overflow = fits;
  overflow.emplace_back(999u);
  ASSERT_FALSE(slab.try_assign(0, overflow));
  EXPECT_EQ(slab.extent(0).first, extent_before.first);
  EXPECT_EQ(slab.size(0), fits.size());
  EXPECT_EQ(slab.tail(), tail_before);
}

TEST(MemberSlabTest, TryApplyEditsMatchesMergeAndThrowsBeforeMutating) {
  // The in-place stage-1 merge must produce exactly merge_sorted_edits'
  // output, refuse (untouched) when the merged run outgrows the cap, and
  // throw on a stale removal list WITHOUT having mutated the extent.
  cluster::MemberSlab slab;
  slab.acquire_slot(0);
  for (std::uint64_t v = 0; v < 40; v += 2) slab.insert_sorted(0, NodeId{v});
  const auto extent_before = slab.extent(0);

  // Mixed removals + additions, including an addition below the minimum
  // and one above the maximum, against the reference merge.
  const std::vector<NodeId> removals{NodeId{4}, NodeId{18}, NodeId{38}};
  const std::vector<NodeId> additions{NodeId{0xFFFF}, NodeId{1}, NodeId{19}};
  std::vector<NodeId> sorted_adds = additions;
  std::sort(sorted_adds.begin(), sorted_adds.end());
  std::vector<NodeId> expected;
  cluster::merge_sorted_edits(slab.members(0), removals, sorted_adds,
                              expected);
  ASSERT_TRUE(slab.try_apply_edits(0, removals, sorted_adds));
  EXPECT_TRUE(std::ranges::equal(slab.members(0), expected));
  EXPECT_EQ(slab.extent(0).first, extent_before.first);
  EXPECT_EQ(slab.extent(0).cap, extent_before.cap);
  EXPECT_EQ(slab.live(), expected.size());

  // Merged size beyond cap: refused, nothing changes.
  std::vector<NodeId> overflow;
  for (std::uint64_t v = 0; v <= extent_before.cap; ++v) {
    overflow.emplace_back(0x10000 + v);
  }
  ASSERT_FALSE(slab.try_apply_edits(0, {}, overflow));
  EXPECT_TRUE(std::ranges::equal(slab.members(0), expected));

  // Stale removals — a non-member and a duplicate — throw the same
  // std::invalid_argument as merge_sorted_edits, before any write.
  const std::vector<NodeId> absent{NodeId{4}};  // removed by the merge above
  EXPECT_THROW((void)slab.try_apply_edits(0, absent, {}),
               std::invalid_argument);
  const std::vector<NodeId> duplicate{NodeId{2}, NodeId{2}};
  EXPECT_THROW((void)slab.try_apply_edits(0, duplicate, {}),
               std::invalid_argument);
  EXPECT_TRUE(std::ranges::equal(slab.members(0), expected));
  EXPECT_EQ(slab.live(), expected.size());
}

TEST(MemberSlabTest, CompactionPacksAscendingSlotsAndResetsEmpties) {
  cluster::MemberSlab slab;
  for (std::size_t s = 0; s < 4; ++s) slab.acquire_slot(s);
  for (std::uint64_t v = 0; v < 20; ++v) slab.insert_sorted(1, NodeId{v});
  for (std::uint64_t v = 100; v < 110; ++v) slab.insert_sorted(3, NodeId{v});
  // Grow-then-shrink slot 1 to strand dead space behind a relocation.
  for (std::uint64_t v = 20; v < 60; ++v) slab.insert_sorted(1, NodeId{v});
  for (std::uint64_t v = 20; v < 60; ++v) slab.erase_sorted(1, NodeId{v});
  const std::vector<NodeId> one(slab.members(1).begin(),
                                slab.members(1).end());
  const std::vector<NodeId> three(slab.members(3).begin(),
                                  slab.members(3).end());

  slab.compact();
  EXPECT_GE(slab.compaction_count(), 1u);
  // Populated extents pack in ascending slot order with fresh cap_for
  // headroom; empty slots reset to zero.
  EXPECT_EQ(slab.extent(1).first, 0u);
  EXPECT_EQ(slab.extent(1).cap, cluster::MemberSlab::cap_for(one.size()));
  EXPECT_EQ(slab.extent(3).first, slab.extent(1).cap);
  EXPECT_EQ(slab.extent(3).cap, cluster::MemberSlab::cap_for(three.size()));
  EXPECT_EQ(slab.tail(), slab.extent(1).cap + slab.extent(3).cap);
  EXPECT_EQ(slab.extent(0).cap, 0u);
  EXPECT_EQ(slab.extent(2).cap, 0u);
  // Contents survive verbatim.
  const auto m1 = slab.members(1);
  const auto m3 = slab.members(3);
  EXPECT_TRUE(std::equal(m1.begin(), m1.end(), one.begin(), one.end()));
  EXPECT_TRUE(std::equal(m3.begin(), m3.end(), three.begin(), three.end()));
}

TEST(MemberSlabTest, CompactionTriggerIsAFunctionOfTailAndLive) {
  cluster::MemberSlab slab;
  slab.acquire_slot(0);
  // Inflate tail with churn on one slot; the trigger must fire exactly when
  // tail > 2 * live + slack, and every mutator self-compacts via
  // maybe_compact, so dead space stays bounded.
  for (std::uint64_t v = 0; v < 40000; ++v) {
    slab.insert_sorted(0, NodeId{v});
  }
  for (std::uint64_t v = 0; v < 39000; ++v) {
    slab.erase_sorted(0, NodeId{v});
  }
  EXPECT_FALSE(slab.compaction_due());
  EXPECT_LE(slab.tail(),
            2 * slab.live() + cluster::MemberSlab::kCompactSlack);
  EXPECT_GE(slab.compaction_count(), 1u);
}

// ---------------------------------------------------------- spill protocol

TEST(MemberSlabTest, OversizedMergeSpillsToSequentialCommit) {
  NowState state{small_over()};
  const ClusterId c = state.create_cluster();
  const std::size_t slot = state.slot_index(c);
  std::uint64_t next_id = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const NodeId node{next_id++};
    state.register_node(node);
    state.add_member(c, node);
  }
  const std::uint64_t cap = state.member_slab().extent(slot).cap;

  // A join burst larger than the extent's headroom: try_assign must refuse
  // and park the slot on the spill list instead of relocating in stage 1.
  std::vector<NodeId> adds;
  for (std::uint64_t i = 0; i <= cap; ++i) adds.push_back(NodeId{1000 + i});
  NowState::EditScratch scratch;
  const std::int64_t delta =
      state.apply_member_edits(slot, {}, adds, scratch);
  EXPECT_EQ(delta, static_cast<std::int64_t>(adds.size()));
  ASSERT_EQ(scratch.spills.size(), 1u);
  EXPECT_EQ(scratch.spills[0].first, slot);
  // The extent is untouched until the sequential commit lands the spill.
  EXPECT_EQ(state.cluster_at(c).size(), 4u);

  state.commit_spilled_members(scratch.spills[0].first,
                               scratch.spills[0].second);
  scratch.spills.clear();
  EXPECT_EQ(state.cluster_at(c).size(), 4u + adds.size());
  EXPECT_TRUE(state.cluster_at(c).contains(NodeId{1000}));
  EXPECT_TRUE(state.cluster_at(c).contains(NodeId{1000 + cap}));
  EXPECT_GT(state.member_slab().extent(slot).cap, cap);

  // Stage-2 bookkeeping reconciles cleanly (the debug assert inside
  // apply_size_deltas cross-checks the final extent size).
  const std::vector<std::pair<std::size_t, std::int64_t>> deltas{
      {slot, delta}};
  state.apply_size_deltas(deltas);
  state.adjust_placed_count(delta);
  EXPECT_EQ(state.num_nodes(), 4u + adds.size());
}

TEST(MemberSlabTest, RepeatedNetMovesApplyLikeTheirSet) {
  // Stage 1 hands apply_member_edits a set of net moves in which an entry
  // may repeat (a node moved off a slot, back, and off again yields the
  // same remove twice). Repeats must not change the extent, the size delta
  // or the Byzantine count.
  const auto apply = [](std::vector<NodeId> removes,
                        std::vector<NodeId> adds) {
    NowState state{small_over()};
    const ClusterId c = state.create_cluster();
    for (std::uint64_t v = 0; v < 10; ++v) {
      state.register_node(NodeId{v});
      state.add_member(c, NodeId{v});
      if (v % 3 == 0) state.set_byzantine(NodeId{v}, true);
    }
    state.set_byzantine(NodeId{101}, true);
    NowState::EditScratch scratch;
    const std::int64_t delta =
        state.apply_member_edits(state.slot_index(c), removes, adds, scratch);
    EXPECT_TRUE(scratch.spills.empty());
    const std::span<const NodeId> members = state.cluster_at(c).members();
    std::vector<NodeId> extent(members.begin(), members.end());
    return std::make_tuple(extent, delta, state.byzantine_count(c));
  };
  const auto ids = [](std::initializer_list<std::uint64_t> values) {
    std::vector<NodeId> nodes;
    for (const std::uint64_t v : values) nodes.push_back(NodeId{v});
    return nodes;
  };
  const auto [members, delta, byzantine] =
      apply(ids({2, 5, 2, 7, 5}), ids({101, 100, 101, 102, 101}));
  EXPECT_EQ(apply(ids({2, 5, 7}), ids({100, 101, 102})),
            std::make_tuple(members, delta, byzantine));
  EXPECT_EQ(delta, 0);
  EXPECT_EQ(members.size(), 10u);
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  // Members 0, 3, 6 and 9 are Byzantine and stay; 101 joins them.
  EXPECT_EQ(byzantine, 5u);
}

// ----------------------------------------------- system-level slab behavior

TEST(MemberSlabTest, SplitsCarveAndMergesCoalesceConsistently) {
  // Sustained growth (splits carve fresh extents) followed by sustained
  // shrinkage (merges drain and release extents): the slab stays consistent
  // with the partition after every operation.
  Metrics metrics;
  NowSystem system{slab_params(), metrics, 8};
  system.initialize(400, 0, InitTopology::kModeledSparse);
  const std::size_t clusters_before = system.num_clusters();
  std::size_t splits = 0;
  for (int i = 0; i < 200; ++i) {
    const auto [node, report] = system.join(false);
    splits += report.splits;
    expect_slab_consistent(system.state());
  }
  EXPECT_GT(splits, 0u);
  EXPECT_GT(system.num_clusters(), clusters_before);

  Rng rng{321};
  std::size_t merges = 0;
  for (int i = 0; i < 350 && system.num_nodes() > 100; ++i) {
    const auto report = system.leave(system.state().random_node(rng));
    merges += report.merges;
    expect_slab_consistent(system.state());
  }
  EXPECT_GT(merges, 0u);
  EXPECT_TRUE(system.check().ok);
}

TEST(MemberSlabTest, LayoutIsBitIdenticalAcrossShards) {
  // The tentpole determinism contract: the extent table — not just the
  // partition — is identical across shards {1, 4, 8}, because the pool is
  // only reshaped at sequential points and the spill set is
  // shard-independent.
  constexpr std::size_t kShardAxis[] = {1, 4, 8};
  std::vector<std::unique_ptr<Metrics>> metrics;
  std::vector<std::unique_ptr<NowSystem>> systems;
  std::vector<Rng> victim_rngs;
  for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
    metrics.push_back(std::make_unique<Metrics>());
    systems.push_back(
        std::make_unique<NowSystem>(slab_params(), *metrics.back(), 61));
    systems.back()->initialize(900, 90, InitTopology::kModeledSparse);
    victim_rngs.emplace_back(61 ^ 99);
  }
  for (int round = 0; round < 4; ++round) {
    for (std::size_t v = 0; v < systems.size(); ++v) {
      drive_batch(*systems[v], victim_rngs[v], kShardAxis[v]);
    }
    const SlabSignature reference = slab_signature(systems[0]->state());
    for (std::size_t v = 1; v < systems.size(); ++v) {
      ASSERT_EQ(slab_signature(systems[v]->state()), reference)
          << "shards " << kShardAxis[v] << " diverged from shards "
          << kShardAxis[0] << " in round " << round;
    }
  }
  for (const auto& system : systems) {
    expect_slab_consistent(system->state());
    EXPECT_TRUE(system->check().ok);
  }
}

TEST(MemberSlabTest, ForcedCompactionMidScenarioIsUnobservable) {
  // Gap bytes and dead space are dead: force-compacting one of two
  // identical systems mid-run must not change anything RNG-observable —
  // joins, costs, partitions, homes — even though the extent tables now
  // differ.
  constexpr std::size_t kShards = 4;
  Metrics ma;
  Metrics mb;
  NowSystem a{slab_params(), ma, 17};
  NowSystem b{slab_params(), mb, 17};
  a.initialize(900, 90, InitTopology::kModeledSparse);
  b.initialize(900, 90, InitTopology::kModeledSparse);
  Rng victims_a{17 ^ 3};
  Rng victims_b{17 ^ 3};
  for (int t = 0; t < 2; ++t) {
    drive_batch(a, victims_a, kShards);
    drive_batch(b, victims_b, kShards);
  }

  // The sanctioned test-only mutation path (the slab is handed out const).
  auto& slab_b = const_cast<cluster::MemberSlab&>(b.state().member_slab());
  const std::uint64_t compactions_before = slab_b.compaction_count();
  slab_b.compact();
  ASSERT_EQ(slab_b.compaction_count(), compactions_before + 1);
  expect_slab_consistent(b.state());

  for (int t = 0; t < 4; ++t) {
    const auto [ja, ra] = drive_batch(a, victims_a, kShards);
    const auto [jb, rb] = drive_batch(b, victims_b, kShards);
    ASSERT_EQ(ja, jb) << "batch " << t;
    EXPECT_EQ(ra.cost.messages, rb.cost.messages) << "batch " << t;
    EXPECT_EQ(ra.cost.rounds, rb.cost.rounds) << "batch " << t;
    EXPECT_EQ(ra.conflicts, rb.conflicts) << "batch " << t;
    EXPECT_EQ(ra.splits, rb.splits) << "batch " << t;
    EXPECT_EQ(ra.merges, rb.merges) << "batch " << t;
  }
  EXPECT_EQ(partition_signature(a), partition_signature(b));
  for (const NodeId node : a.state().live_nodes()) {
    ASSERT_EQ(a.state().home_of(node), b.state().home_of(node));
  }
  EXPECT_EQ(a.rng().state(), b.rng().state());
}

TEST(MemberSlabTest, FragmentedSlabSurvivesSnapshotRoundTrip) {
  // Join-heavy churn relocates extents and leaves dead space behind; the
  // snapshot must restore the slab GEOMETRY verbatim (tail + every extent),
  // not just the membership, because compaction triggers and slab positions
  // feed back into behavior.
  const std::string path = testing::TempDir() + "member_slab_frag.snap";
  Metrics ma;
  NowSystem a{slab_params(), ma, 29};
  a.initialize(600, 60, InitTopology::kModeledSparse);
  // A join burst forces splits: each split strands the parent cluster's
  // extent as dead space (guaranteed fragmentation, below the compaction
  // threshold at this scale).
  std::size_t splits = 0;
  for (int i = 0; i < 200; ++i) splits += a.join(false).second.splits;
  ASSERT_GT(splits, 0u);
  Rng victims_a{29 ^ 1};
  for (int t = 0; t < 4; ++t) {
    const auto leaves = a.state().sample_distinct_nodes(victims_a, 4);
    a.step_parallel_mixed(12, 1, leaves, 4);
  }
  // The churn above must actually have fragmented the slab — dead space
  // beyond the live extents' reservations — or this test is vacuous.
  const cluster::MemberSlab& slab_a = a.state().member_slab();
  std::uint64_t reserved = 0;
  for (const ClusterId id : a.state().cluster_ids()) {
    reserved += slab_a.extent(a.state().slot_index(id)).cap;
  }
  EXPECT_GT(slab_a.tail(), reserved) << "churn produced no fragmentation";
  const SlabSignature saved = slab_signature(a.state());
  a.save(path);

  Metrics mb;
  NowSystem b{slab_params(), mb, 29};
  b.load(path);
  ASSERT_EQ(slab_signature(b.state()), saved);
  expect_slab_consistent(b.state());

  // Restore-then-continue stays bit-exact through more sharded batches.
  Rng victims_b{0};
  victims_b.restore_state(victims_a.state());
  for (int t = 0; t < 4; ++t) {
    const auto la = a.state().sample_distinct_nodes(victims_a, 4);
    const auto lb = b.state().sample_distinct_nodes(victims_b, 4);
    ASSERT_EQ(la, lb) << "batch " << t;
    const auto [ja, ra] = a.step_parallel_mixed(6, 1, la, 4);
    const auto [jb, rb] = b.step_parallel_mixed(6, 1, lb, 4);
    ASSERT_EQ(ja, jb) << "batch " << t;
    EXPECT_EQ(ra.cost.messages, rb.cost.messages) << "batch " << t;
  }
  ASSERT_EQ(slab_signature(a.state()), slab_signature(b.state()));
  EXPECT_EQ(partition_signature(a), partition_signature(b));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace now::core
