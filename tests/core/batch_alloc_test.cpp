// Allocation-regression guard for the sharded batch engine (DESIGN.md §11).
//
// The engine's per-batch scratch is epoch-stamped and geometrically grown,
// so a steady-state batch must do no allocation traffic that scales with
// the deployment size. A counting global operator new measures allocations
// per batch at two deployment sizes 4x apart — the counts must be about
// the same (the residual constant-per-batch traffic: std::function spill
// in parallel_for, amortized Metrics sample growth). A growth-heavy run
// checks the same per-batch constant while the slab tail more than doubles.
// This file deliberately gets its own test binary (one per *_test.cpp), so
// the operator new replacement cannot leak into other suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/now.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace now::core {
namespace {

NowParams alloc_params() {
  NowParams p;
  p.max_size = 1 << 12;
  p.walk_mode = WalkMode::kSampleExact;
  p.k = 10;
  p.tau = 0.10;
  return p;
}

constexpr std::size_t kBatchJoins = 64;
constexpr std::size_t kBatchLeaves = 64;
constexpr std::size_t kShards = 4;

/// Mean allocations per batch over `batches` steady-state batches. Victim
/// drawing happens outside the counting window — only the engine's own
/// traffic is measured.
double allocs_per_batch(NowSystem& system, Rng& victim_rng,
                        std::size_t batches) {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto leaves =
        system.state().sample_distinct_nodes(victim_rng, kBatchLeaves);
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    (void)system.step_parallel_mixed(kBatchJoins, 0, leaves, kShards);
    total += g_allocs.load(std::memory_order_relaxed) - before;
  }
  return static_cast<double>(total) / static_cast<double>(batches);
}

TEST(BatchAllocTest, SteadyStateAllocationsAreSizeIndependent) {
  constexpr std::size_t kSmallN = 10000;
  constexpr std::size_t kLargeN = 40000;
  Metrics small_metrics;
  Metrics large_metrics;
  NowSystem small(alloc_params(), small_metrics, 71);
  NowSystem large(alloc_params(), large_metrics, 71);
  small.initialize(kSmallN, 0, InitTopology::kModeledSparse);
  large.initialize(kLargeN, 0, InitTopology::kModeledSparse);
  Rng small_victims{5};
  Rng large_victims{5};

  // Warm-up: let every scratch buffer reach steady-state capacity.
  (void)allocs_per_batch(small, small_victims, 8);
  (void)allocs_per_batch(large, large_victims, 8);

  const double small_rate = allocs_per_batch(small, small_victims, 8);
  const double large_rate = allocs_per_batch(large, large_victims, 8);

  // 4x the deployment must not move the per-batch allocation count beyond
  // noise (occasional amortized growth events): if any per-batch
  // O(slot_count) or O(tail) allocation sweep crept back in, large_rate
  // would scale with n and blow far past this bound.
  EXPECT_LE(large_rate, 1.5 * small_rate + 32.0)
      << "small=" << small_rate << " large=" << large_rate;
  // Absolute sanity: steady-state traffic is a small constant per batch.
  EXPECT_LT(large_rate, 512.0);
}

TEST(BatchAllocTest, GrowthHeavyChurnAllocationsStayPerBatchConstant) {
  // Growth-heavy churn (five joins per leave) more than doubles the slab
  // tail and keeps splitting clusters, so the per-slot scratch has to grow
  // along the way. Geometric growth keeps that to rare amortized events:
  // no batch after the first may allocate anything like once per node
  // (the tail ends past 20k).
  Metrics metrics;
  NowSystem system(alloc_params(), metrics, 73);
  system.initialize(8000, 0, InitTopology::kModeledSparse);
  Rng victim_rng{7};
  const std::size_t initial_tail = system.state().member_slab().tail();

  constexpr std::size_t kBatches = 48;
  std::uint64_t worst = 0;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const auto leaves = system.state().sample_distinct_nodes(victim_rng, 16);
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    (void)system.step_parallel_mixed(80, 0, leaves, kShards);
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - before;
    if (b == 0) continue;  // cold scratch: first-touch sizing
    worst = std::max(worst, allocs);
    total += allocs;
  }
  ASSERT_GE(system.state().member_slab().tail(), 2 * initial_tail)
      << "the churn no longer exercises slab growth";
  EXPECT_LT(static_cast<double>(total) / (kBatches - 1), 512.0);
  EXPECT_LT(worst, 1024u) << "a batch allocated per node";
  EXPECT_TRUE(system.check().ok);
}

}  // namespace
}  // namespace now::core
