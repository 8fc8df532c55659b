// Edge-of-envelope tests: draining the system toward its minimum size, the
// single-cluster regime, and rejoin semantics through merges.
#include <gtest/gtest.h>

#include "core/now.hpp"

namespace now::core {
namespace {

NowParams drain_params() {
  NowParams p;
  p.max_size = 1 << 10;
  p.k = 4;
  p.tau = 0.10;
  p.walk_mode = WalkMode::kSampleExact;
  return p;
}

TEST(DrainTest, DrainToSingleClusterAndBack) {
  Metrics metrics;
  NowSystem system{drain_params(), metrics, 1};
  system.initialize(300, 30, InitTopology::kModeledSparse);
  Rng rng{2};

  // Drain until only one cluster remains (merges must collapse the
  // partition without ever wedging).
  while (system.num_clusters() > 1 && system.num_nodes() > 20) {
    system.leave(system.state().random_node(rng));
  }
  EXPECT_GE(system.num_clusters(), 1u);
  const auto low = system.check();
  EXPECT_TRUE(low.ok) << (low.violations.empty() ? "" : low.violations[0]);

  // Grow back: splits must re-populate the overlay.
  for (int i = 0; i < 250; ++i) system.join(rng.bernoulli(0.10));
  EXPECT_GT(system.num_clusters(), 2u);
  const auto high = system.check();
  EXPECT_TRUE(high.ok) << (high.violations.empty() ? "" : high.violations[0]);
}

TEST(DrainTest, RejoinedNodesKeepTheirByzantineStatus) {
  // A merge dissolves a cluster and re-joins its members: corrupted members
  // must remain corrupted (the adversary does not lose nodes to protocol
  // restructuring).
  Metrics metrics;
  NowSystem system{drain_params(), metrics, 3};
  system.initialize(300, 30, InitTopology::kModeledSparse);
  Rng rng{4};
  const std::size_t byz_before = system.state().byzantine_total();
  std::size_t merges = 0;
  // Only remove honest nodes, so the Byzantine population is untouched by
  // the leaves themselves — any change would come from a rejoin bug.
  for (int i = 0; i < 150 && system.num_nodes() > 60; ++i) {
    const auto report =
        system.leave(system.state().random_honest_node(rng));
    merges += report.merges;
  }
  ASSERT_GT(merges, 0u) << "test needs at least one merge to be meaningful";
  EXPECT_EQ(system.state().byzantine_total(), byz_before);
}

TEST(DrainTest, SingleClusterOperationsStillWork) {
  // The degenerate one-cluster system must accept joins and leaves (the
  // overlay is a single isolated vertex; walks return it immediately).
  NowParams p = drain_params();
  Metrics metrics;
  NowSystem system{p, metrics, 5};
  system.initialize(p.cluster_size_target(), 2,
                    InitTopology::kModeledSparse);
  ASSERT_EQ(system.num_clusters(), 1u);
  const auto [node, report] = system.join(false);
  EXPECT_GT(report.cost.messages, 0u);
  system.leave(node);
  EXPECT_TRUE(system.check().ok);
}

TEST(DrainTest, MergeRebalancesOverlayVertexCount) {
  // After any amount of churn the overlay's vertex set and the partition
  // must be exactly in sync (no ghost vertices from dissolved clusters).
  Metrics metrics;
  NowSystem system{drain_params(), metrics, 6};
  system.initialize(400, 40, InitTopology::kModeledSparse);
  Rng rng{7};
  for (int i = 0; i < 120; ++i) {
    if (rng.bernoulli(0.3)) {
      system.join(false);
    } else if (system.num_nodes() > 40) {
      system.leave(system.state().random_node(rng));
    }
    ASSERT_EQ(system.state().overlay().num_clusters(),
              system.num_clusters());
  }
}

}  // namespace
}  // namespace now::core
