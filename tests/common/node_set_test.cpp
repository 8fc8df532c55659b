#include "common/node_set.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace now {
namespace {

TEST(NodeSetTest, InsertEraseContains) {
  NodeSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert(NodeId{7}));
  EXPECT_FALSE(set.insert(NodeId{7}));  // duplicate
  EXPECT_TRUE(set.insert(NodeId{100000}));  // far id: new page
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(NodeId{7}));
  EXPECT_TRUE(set.contains(NodeId{100000}));
  EXPECT_FALSE(set.contains(NodeId{8}));

  EXPECT_TRUE(set.erase(NodeId{7}));
  EXPECT_FALSE(set.erase(NodeId{7}));  // already gone
  EXPECT_FALSE(set.contains(NodeId{7}));
  EXPECT_EQ(set.size(), 1u);
}

TEST(NodeSetTest, IterationVisitsEveryMemberOnce) {
  NodeSet set{NodeId{1}, NodeId{5}, NodeId{9}, NodeId{2}};
  std::vector<NodeId> seen(set.begin(), set.end());
  std::sort(seen.begin(), seen.end());
  const std::vector<NodeId> expected = {NodeId{1}, NodeId{2}, NodeId{5},
                                        NodeId{9}};
  EXPECT_EQ(seen, expected);
}

TEST(NodeSetTest, EraseMovesTheLastMemberIntoTheGap) {
  NodeSet set;
  for (std::uint64_t i = 0; i < 10; ++i) set.insert(NodeId{i});
  // Erase all even ids while scanning by index: an erase swaps the last
  // member into position i, which is visited next.
  for (std::size_t i = 0; i < set.size();) {
    if (set.at_index(i).value() % 2 == 0) {
      set.erase(set.at_index(i));
    } else {
      ++i;
    }
  }
  EXPECT_EQ(set.size(), 5u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(set.contains(NodeId{i}), i % 2 == 1) << i;
  }
}

TEST(NodeSetTest, AtIndexEnablesUniformSampling) {
  NodeSet set{NodeId{3}, NodeId{4}};
  std::vector<NodeId> via_index;
  for (std::size_t i = 0; i < set.size(); ++i) {
    via_index.push_back(set.at_index(i));
  }
  std::sort(via_index.begin(), via_index.end());
  EXPECT_EQ(via_index, (std::vector<NodeId>{NodeId{3}, NodeId{4}}));
}

TEST(NodeSetTest, CopiesAreIndependent) {
  NodeSet a{NodeId{1}, NodeId{2}};
  NodeSet b = a;
  b.erase(NodeId{1});
  b.insert(NodeId{3});
  EXPECT_TRUE(a.contains(NodeId{1}));
  EXPECT_FALSE(a.contains(NodeId{3}));
  EXPECT_FALSE(b.contains(NodeId{1}));
  EXPECT_TRUE(b.contains(NodeId{3}));
}

TEST(NodeSetTest, ConstructFromIteratorRange) {
  const std::vector<NodeId> ids = {NodeId{10}, NodeId{20}, NodeId{10}};
  const NodeSet set(ids.begin(), ids.end());
  EXPECT_EQ(set.size(), 2u);  // duplicate collapsed
  EXPECT_TRUE(set.contains(NodeId{10}));
  EXPECT_TRUE(set.contains(NodeId{20}));
}

}  // namespace
}  // namespace now
