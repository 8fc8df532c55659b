// Tests for the fork-join pool behind sharded batch planning
// (common/thread_pool.hpp): every task index runs exactly once, a pool
// without workers runs inline in index order, and one pool serves many
// consecutive batches of any size.
#include "common/thread_pool.hpp"

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace now {
namespace {

TEST(ThreadPoolTest, ParallelForRunsEveryTaskExactlyOnce) {
  ThreadPool pool{3};
  EXPECT_EQ(pool.worker_count(), 3u);
  constexpr std::size_t kTasks = 257;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.parallel_for(kTasks, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsInlineInIndexOrder) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.worker_count(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, OnePoolServesManyBatchesOfAnySize) {
  // Batches of 0 and 1 tasks take the inline path; the rest wake the
  // workers. Each batch must see exactly its own tasks, none left over
  // from the batch before.
  ThreadPool pool{2};
  for (std::size_t tasks = 0; tasks < 40; ++tasks) {
    std::atomic<std::size_t> sum{0};
    std::atomic<std::size_t> calls{0};
    pool.parallel_for(tasks, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
      calls.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(calls.load(), tasks);
    EXPECT_EQ(sum.load(), tasks * (tasks + 1) / 2) << tasks << " tasks";
  }
}

}  // namespace
}  // namespace now
