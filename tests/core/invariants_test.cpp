#include "core/invariants.hpp"

#include <gtest/gtest.h>

#include "core/now.hpp"

namespace now::core {
namespace {

NowParams small_params() {
  NowParams p;
  p.max_size = 1 << 12;
  return p;
}

TEST(InvariantsTest, HealthySystemPasses) {
  Metrics metrics;
  NowSystem system{small_params(), metrics, 1};
  system.initialize(400, 40);
  const auto report = check_invariants(system.state(), system.params());
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.compromised_clusters, 0u);
  EXPECT_TRUE(report.overlay_connected);
}

TEST(InvariantsTest, DetectsCompromisedCluster) {
  Metrics metrics;
  NowSystem system{small_params(), metrics, 2};
  system.initialize(400, 0);
  // Corrupt 1/3 of one cluster's members by fiat.
  auto& state = const_cast<NowState&>(system.state());
  const auto& first = state.cluster_at(state.cluster_ids().front());
  const std::size_t third = first.size() / 3 + 1;
  for (std::size_t i = 0; i < third; ++i) {
    state.set_byzantine(first.member_at(i), true);
  }
  const auto report = check_invariants(state, system.params());
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.compromised_clusters, 1u);
  EXPECT_GT(report.worst_byz_fraction, 0.33);
}

TEST(InvariantsTest, DetectsBrokenBookkeeping) {
  Metrics metrics;
  NowSystem system{small_params(), metrics, 3};
  system.initialize(400, 0);
  auto& state = const_cast<NowState&>(system.state());
  // Point one node's home at the wrong cluster.
  const NodeId node = state.live_nodes().front();
  const ClusterId wrong = state.cluster_ids().back();
  const ClusterId right = state.home_of(node);
  if (wrong != right) {
    state.corrupt_home_for_test(node, wrong);
    const auto report = check_invariants(state, system.params());
    EXPECT_FALSE(report.ok);
  }
}

TEST(InvariantsTest, DetectsUndersizedCluster) {
  Metrics metrics;
  NowSystem system{small_params(), metrics, 4};
  system.initialize(400, 0);
  auto& state = const_cast<NowState&>(system.state());
  // Shrink one cluster below the merge threshold by ripping members out.
  const ClusterId cid = state.cluster_ids().front();
  while (state.cluster_at(cid).size() >= system.params().merge_threshold()) {
    const NodeId m = state.cluster_at(cid).member_at(0);
    state.remove_member(cid, m);
    state.unregister_node(m);
  }
  const auto report = check_invariants(state, system.params());
  EXPECT_FALSE(report.ok);
}

TEST(InvariantsTest, SizeChecksCanBeDisabled) {
  Metrics metrics;
  NowSystem system{small_params(), metrics, 5};
  system.initialize(400, 0);
  auto& state = const_cast<NowState&>(system.state());
  const ClusterId cid = state.cluster_ids().front();
  while (state.cluster_at(cid).size() >= system.params().merge_threshold()) {
    const NodeId m = state.cluster_at(cid).member_at(0);
    state.remove_member(cid, m);
    state.unregister_node(m);
  }
  const auto report =
      check_invariants(state, system.params(), /*check_sizes=*/false);
  EXPECT_TRUE(report.ok);
}

}  // namespace
}  // namespace now::core
