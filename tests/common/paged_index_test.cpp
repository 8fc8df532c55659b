// Tests for the page-on-demand id index (common/paged_index.hpp): unset
// keys read the sentinel without allocating, pages appear only where keys
// are set, unset restores the sentinel, and copies are deep.
#include "common/paged_index.hpp"

#include <cstdint>

#include <gtest/gtest.h>

namespace now {
namespace {

constexpr std::uint64_t kNone = ~std::uint64_t{0};

TEST(PagedIndexTest, UnsetKeysReadTheSentinelWithoutAllocating) {
  PagedIndex<std::uint64_t> index{kNone};
  const std::size_t empty_bytes = index.footprint_bytes();
  for (const std::uint64_t key : {0ull, 1023ull, 1024ull, 1ull << 40}) {
    EXPECT_EQ(index.get(key), kNone) << key;
    EXPECT_FALSE(index.contains(key)) << key;
    index.unset(key);
    index.prefetch(key);
  }
  EXPECT_EQ(index.footprint_bytes(), empty_bytes);
}

TEST(PagedIndexTest, SetAndUnsetAcrossPageBoundaries) {
  PagedIndex<std::uint64_t> index{kNone};
  // 1023 and 1024 sit on either side of the first page boundary.
  const std::uint64_t keys[] = {0, 1023, 1024, 5000};
  for (const std::uint64_t key : keys) index.set(key, key * 3);
  for (const std::uint64_t key : keys) {
    EXPECT_TRUE(index.contains(key)) << key;
    EXPECT_EQ(index.get(key), key * 3) << key;
  }
  // Neighbors on an allocated page still read the sentinel.
  EXPECT_FALSE(index.contains(1));
  EXPECT_FALSE(index.contains(1025));
  // 4999 shares 5000's page, so setting it allocates nothing.
  const std::size_t with_pages = index.footprint_bytes();
  index.set(4999, 7);
  EXPECT_EQ(index.footprint_bytes(), with_pages);

  index.unset(1024);
  EXPECT_FALSE(index.contains(1024));
  EXPECT_EQ(index.get(1024), kNone);
  EXPECT_EQ(index.get(1023), 1023u * 3);

  index.clear();
  for (const std::uint64_t key : keys) EXPECT_FALSE(index.contains(key));
}

TEST(PagedIndexTest, CopiesAreDeep) {
  PagedIndex<std::uint64_t> original{kNone};
  original.set(10, 1);
  original.set(3000, 2);
  PagedIndex<std::uint64_t> copy{original};
  PagedIndex<std::uint64_t> assigned{kNone};
  assigned = original;

  original.set(10, 99);
  original.unset(3000);
  for (const auto* index : {&copy, &assigned}) {
    EXPECT_EQ(index->get(10), 1u);
    EXPECT_EQ(index->get(3000), 2u);
  }
  EXPECT_EQ(original.get(10), 99u);
  EXPECT_FALSE(original.contains(3000));
}

}  // namespace
}  // namespace now
