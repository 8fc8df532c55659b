#include "common/fenwick.hpp"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace now {
namespace {

TEST(FenwickTest, FindInvertsPrefixSums) {
  FenwickTree tree;
  tree.resize(6);
  const std::vector<std::uint64_t> values = {2, 0, 5, 1, 0, 3};
  for (std::size_t i = 0; i < values.size(); ++i) tree.add(i, values[i]);

  // Every target in [0, total) must land in the slot covering it; zero-size
  // slots are never returned.
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::uint64_t j = 0; j < values[i]; ++j) expected.push_back(i);
  }
  ASSERT_EQ(expected.size(), tree.total());
  for (std::uint64_t target = 0; target < tree.total(); ++target) {
    EXPECT_EQ(tree.find(target), expected[target]) << "target " << target;
  }
}

TEST(FenwickTest, SubtractAndReuse) {
  FenwickTree tree;
  tree.resize(4);
  tree.add(0, 10);
  tree.add(2, 4);
  tree.subtract(0, 10);
  EXPECT_EQ(tree.total(), 4u);
  EXPECT_EQ(tree.value_at(0), 0u);
  for (std::uint64_t t = 0; t < 4; ++t) EXPECT_EQ(tree.find(t), 2u);
  tree.add(0, 1);
  EXPECT_EQ(tree.find(0), 0u);
}

TEST(FenwickTest, ApplyDeltasRebuildMatchesPointUpdates) {
  // One large delta batch takes apply_deltas' O(k) rebuild branch; the
  // same deltas fed one at a time take the point-update branch. Both must
  // leave the identical tree.
  constexpr std::size_t kN = 8192;
  FenwickTree rebuilt;
  FenwickTree updated;
  rebuilt.resize(kN);
  updated.resize(kN);
  Rng rng{99};
  for (std::size_t i = 0; i < kN; ++i) {
    const std::uint64_t v = rng.uniform(50) + 1;
    rebuilt.add(i, v);
    updated.add(i, v);
  }
  std::vector<std::pair<std::size_t, std::int64_t>> deltas;
  for (std::size_t i = 0; i < kN; i += 2) {
    deltas.emplace_back(i, i % 4 == 0 ? 3 : -1);
  }
  rebuilt.apply_deltas(deltas);
  for (const auto& delta : deltas) updated.apply_deltas({&delta, 1});
  ASSERT_EQ(rebuilt.total(), updated.total());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(rebuilt.value_at(i), updated.value_at(i)) << "value " << i;
  }
  // Equal finds at every target mean equal prefix sums everywhere.
  for (std::uint64_t t = 0; t < rebuilt.total(); ++t) {
    ASSERT_EQ(rebuilt.find(t), updated.find(t)) << "target " << t;
  }
}

TEST(FenwickTest, ResizePreservesValues) {
  FenwickTree tree;
  tree.resize(3);
  tree.add(0, 5);
  tree.add(2, 2);
  tree.resize(50);
  EXPECT_EQ(tree.total(), 7u);
  EXPECT_EQ(tree.find(6), 2u);
  tree.add(40, 1);
  EXPECT_EQ(tree.total(), 8u);
  EXPECT_EQ(tree.find(7), 40u);
}

}  // namespace
}  // namespace now
