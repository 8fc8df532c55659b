#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

namespace now::cluster {
namespace {

/// A Cluster is a thin view over a MemberSlab extent; the fixture owns the
/// slab and hands out slab-backed clusters on sequential slots.
class ClusterTest : public ::testing::Test {
 protected:
  Cluster make(ClusterId id) {
    const std::size_t slot = next_slot_++;
    slab_.acquire_slot(slot);
    return Cluster{id, slab_, slot};
  }

  MemberSlab slab_;
  std::size_t next_slot_ = 0;
};

TEST_F(ClusterTest, MembershipBasics) {
  Cluster c = make(ClusterId{1});
  EXPECT_EQ(c.id(), ClusterId{1});
  EXPECT_EQ(c.size(), 0u);
  c.add_member(NodeId{5});
  c.add_member(NodeId{3});
  c.add_member(NodeId{9});
  EXPECT_EQ(c.size(), 3u);
  EXPECT_TRUE(c.contains(NodeId{3}));
  EXPECT_FALSE(c.contains(NodeId{4}));
  c.remove_member(NodeId{3});
  EXPECT_FALSE(c.contains(NodeId{3}));
  EXPECT_EQ(c.size(), 2u);
}

TEST_F(ClusterTest, MembersStaySorted) {
  Cluster c = make(ClusterId{2});
  for (const auto v : {9, 1, 5, 3, 7}) c.add_member(NodeId{
      static_cast<std::uint64_t>(v)});
  const auto members = c.members();
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  EXPECT_EQ(c.member_at(0), NodeId{1});
  EXPECT_EQ(c.member_at(4), NodeId{9});
}

TEST_F(ClusterTest, RandomMemberIsAMember) {
  Cluster c = make(ClusterId{3});
  for (std::uint64_t v = 0; v < 10; ++v) c.add_member(NodeId{v});
  Rng rng{1};
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(c.contains(c.random_member(rng)));
}

TEST_F(ClusterTest, ByzantineCounting) {
  Cluster c = make(ClusterId{4});
  for (std::uint64_t v = 0; v < 9; ++v) c.add_member(NodeId{v});
  NodeSet byz{NodeId{0}, NodeId{4}, NodeId{8}, NodeId{100}};
  EXPECT_EQ(byzantine_count(c, byz), 3u);  // 100 is not a member
}

TEST_F(ClusterTest, ByzantineCountOfEmptyClusterIsZero) {
  Cluster c = make(ClusterId{5});
  EXPECT_EQ(byzantine_count(c, {NodeId{1}}), 0u);
}

TEST_F(ClusterTest, SortedEditsMergeAndAssignInOnePass) {
  // The sequential bulk update: merge the sorted edits into scratch, then
  // assign the run back to the cluster's extent.
  const std::size_t slot = next_slot_;
  Cluster c = make(ClusterId{6});
  for (std::uint64_t v = 0; v < 10; v += 2) c.add_member(NodeId{v});  // 0..8
  std::vector<NodeId> scratch;
  const std::vector<NodeId> removals{NodeId{2}, NodeId{6}};
  const std::vector<NodeId> additions{NodeId{1}, NodeId{9}};
  merge_sorted_edits(c.members(), removals, additions, scratch);
  slab_.assign(slot, scratch);
  const std::vector<NodeId> expect{NodeId{0}, NodeId{1}, NodeId{4},
                                   NodeId{8}, NodeId{9}};
  const auto members = c.members();
  ASSERT_EQ(members.size(), expect.size());
  EXPECT_TRUE(std::equal(members.begin(), members.end(), expect.begin()));
}

TEST_F(ClusterTest, StaleRemovalListThrowsInsteadOfCorrupting) {
  const std::size_t slot = next_slot_;
  Cluster c = make(ClusterId{7});
  c.add_member(NodeId{1});
  std::vector<NodeId> scratch;
  const auto apply = [&](const std::vector<NodeId>& removals) {
    merge_sorted_edits(c.members(), removals, {}, scratch);
    slab_.assign(slot, scratch);
  };
  // More removals than members: the old code's reserve arithmetic wrapped
  // in release builds; now it must throw before anything is assigned.
  const std::vector<NodeId> too_many{NodeId{1}, NodeId{2}, NodeId{3}};
  EXPECT_THROW(apply(too_many), std::invalid_argument);
  // A removal naming a non-member (same lengths) must also throw.
  const std::vector<NodeId> stale{NodeId{2}};
  EXPECT_THROW(apply(stale), std::invalid_argument);
  // The membership survived both rejected edits.
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.contains(NodeId{1}));
}

}  // namespace
}  // namespace now::cluster
