#include "cluster/intercluster.hpp"

#include <gtest/gtest.h>

namespace now::cluster {
namespace {

/// Owns the MemberSlab the test clusters view; must outlive the Clusters it
/// hands out.
struct TestArena {
  MemberSlab slab;
  std::size_t next_slot = 0;

  Cluster make(ClusterId id, std::uint64_t first, std::size_t n) {
    const std::size_t slot = next_slot++;
    slab.acquire_slot(slot);
    Cluster c{id, slab, slot};
    for (std::uint64_t i = 0; i < n; ++i) c.add_member(NodeId{first + i});
    return c;
  }
};

TEST(InterclusterTest, CostIsProductOfSizesTimesUnits) {
  const auto cost = cluster_send_cost(5, 7, 3);
  EXPECT_EQ(cost.messages, 5u * 7 * 3);
  EXPECT_EQ(cost.rounds, 1u);
}

TEST(InterclusterTest, HonestMajorityIsAccepted) {
  Metrics metrics;
  TestArena arena;
  const auto from = arena.make(ClusterId{1}, 0, 9);
  const auto to = arena.make(ClusterId{2}, 100, 9);
  const NodeSet byz{NodeId{0}, NodeId{1}, NodeId{2}};  // 3 of 9
  const auto outcome =
      cluster_send(from, to, 2, byzantine_count(from, byz), metrics);
  EXPECT_TRUE(outcome.accepted);
  EXPECT_FALSE(outcome.forgeable);
  EXPECT_EQ(metrics.total().messages, 9u * 9 * 2);
  EXPECT_EQ(metrics.total().rounds, 0u);  // rounds returned in outcome.cost
  EXPECT_EQ(outcome.cost.rounds, 1u);
}

TEST(InterclusterTest, MinorityHonestIsRejected) {
  Metrics metrics;
  TestArena arena;
  const auto from = arena.make(ClusterId{1}, 0, 8);
  const auto to = arena.make(ClusterId{2}, 100, 8);
  NodeSet byz;
  for (std::uint64_t i = 0; i < 4; ++i) byz.insert(NodeId{i});  // half
  const auto outcome =
      cluster_send(from, to, 1, byzantine_count(from, byz), metrics);
  // "at least half plus one" -> 4 honest of 8 is NOT enough.
  EXPECT_FALSE(outcome.accepted);
  EXPECT_FALSE(outcome.forgeable);  // 4 byz of 8 can't forge either
}

TEST(InterclusterTest, ByzantineMajorityCanForge) {
  Metrics metrics;
  TestArena arena;
  const auto from = arena.make(ClusterId{1}, 0, 7);
  const auto to = arena.make(ClusterId{2}, 100, 7);
  NodeSet byz;
  for (std::uint64_t i = 0; i < 5; ++i) byz.insert(NodeId{i});
  const auto outcome =
      cluster_send(from, to, 1, byzantine_count(from, byz), metrics);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_TRUE(outcome.forgeable);
}

TEST(InterclusterTest, ExactTwoThirdsHonestStillAccepted) {
  // The NOW invariant (> 2/3 honest) comfortably implies the > 1/2 rule.
  Metrics metrics;
  TestArena arena;
  const auto from = arena.make(ClusterId{1}, 0, 9);
  const auto to = arena.make(ClusterId{2}, 100, 5);
  const NodeSet byz{NodeId{0}, NodeId{1}};  // 2 of 9 byz
  const auto outcome =
      cluster_send(from, to, 1, byzantine_count(from, byz), metrics);
  EXPECT_TRUE(outcome.accepted);
}

}  // namespace
}  // namespace now::cluster
