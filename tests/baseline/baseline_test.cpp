#include <gtest/gtest.h>

#include "adversary/adversary.hpp"
#include "baseline/single_cluster.hpp"
#include "baseline/static_partition.hpp"

namespace now::baseline {
namespace {

core::NowParams base_params() {
  core::NowParams p;
  p.max_size = 1 << 12;
  p.walk_mode = core::WalkMode::kSampleExact;
  return p;
}

TEST(SingleClusterTest, FlatCostsScaleAsExpected) {
  // Agreement ~ n^3, sampling ~ n.
  EXPECT_GT(flat_agreement_cost(200).messages,
            7 * flat_agreement_cost(100).messages);
  EXPECT_EQ(flat_sampling_cost(500).messages, 500u);
}

TEST(NoShuffleTest, JoinLeaveAttackEventuallyCapturesACluster) {
  // Section 3.3's motivating attack: without exchange, cycling Byzantine
  // nodes through join/leave concentrates them in the victim cluster.
  core::NowParams params = base_params();
  params.shuffle_enabled = false;
  Metrics metrics;
  core::NowSystem system{params, metrics, 1};
  system.initialize(300, 45);
  adversary::JoinLeaveAdversary attacker{0.15,
                                         adversary::ChurnSchedule::hold(300),
                                         /*background_churn=*/0.0};
  Rng rng{2};
  bool captured = false;
  for (std::size_t t = 1; t <= 2500 && !captured; ++t) {
    attacker.step(system, t, rng);
    captured = system.check().compromised_clusters > 0;
  }
  EXPECT_TRUE(captured)
      << "join-leave attack failed to capture a cluster without shuffling";
}

TEST(StaticPartitionTest, ClusterCountStaysFixedUnderGrowth) {
  Metrics metrics;
  StaticPartitionSystem system{base_params(), metrics, 3};
  system.initialize(300, 30);
  const std::size_t clusters_before = system.system().num_clusters();
  for (int i = 0; i < 300; ++i) system.join(false);
  EXPECT_EQ(system.system().num_clusters(), clusters_before);
  EXPECT_EQ(system.num_nodes(), 600u);
}

TEST(StaticPartitionTest, ClusterSizesBlowUpUnderGrowth) {
  // The paper's core argument against static #clusters: growing n inflates
  // every cluster linearly.
  Metrics metrics;
  StaticPartitionSystem system{base_params(), metrics, 4};
  system.initialize(300, 30);
  const std::size_t max_before = system.max_cluster_size();
  for (int i = 0; i < 600; ++i) system.join(false);
  EXPECT_GT(system.max_cluster_size(), 2 * max_before);
}

TEST(StaticPartitionTest, PerOperationCostGrowsWithN) {
  Metrics metrics;
  StaticPartitionSystem system{base_params(), metrics, 5};
  system.initialize(300, 0);
  const auto [n1, early] = system.join(false);
  for (int i = 0; i < 600; ++i) system.join(false);
  const auto [n2, late] = system.join(false);
  EXPECT_GT(late.cost.messages, 2 * early.cost.messages)
      << "static partition join cost should inflate with n";
}

TEST(StaticPartitionTest, LeavesWork) {
  Metrics metrics;
  StaticPartitionSystem system{base_params(), metrics, 6};
  system.initialize(300, 0);
  const auto node = system.system().state().random_node(
      system.system().rng());
  system.leave(node);
  EXPECT_EQ(system.num_nodes(), 299u);
}

}  // namespace
}  // namespace now::baseline
