#include <map>

#include <gtest/gtest.h>

#include "apps/aggregation.hpp"
#include "apps/agreement_service.hpp"
#include "apps/broadcast.hpp"
#include "apps/sampling.hpp"
#include "common/stats.hpp"

namespace now::apps {
namespace {

core::NowParams app_params() {
  core::NowParams p;
  p.max_size = 1 << 12;
  p.walk_mode = core::WalkMode::kSimulate;
  return p;
}

TEST(BroadcastTest, ReachesEveryClusterWithHonestMajorities) {
  Metrics metrics;
  core::NowSystem system{app_params(), metrics, 1};
  system.initialize(500, 75);
  const NodeId source = system.state().live_nodes().front();
  const auto report = broadcast(system, source, 42);
  EXPECT_TRUE(report.delivered_everywhere);
  EXPECT_EQ(report.clusters_reached, system.num_clusters());
  EXPECT_EQ(report.value, 42u);
  EXPECT_GT(report.cost.messages, 0u);
}

TEST(BroadcastTest, CheaperThanNaiveAtModerateScale) {
  Metrics metrics;
  core::NowSystem system{app_params(), metrics, 2};
  system.initialize(1000, 0, core::InitTopology::kModeledSparse);
  const NodeId source = system.state().live_nodes().front();
  const auto report = broadcast(system, source, 7);
  const auto naive = naive_broadcast_cost(system.num_nodes());
  EXPECT_LT(report.cost.messages, naive.messages);
}

TEST(BroadcastTest, CompromisedRelayClusterIsContained) {
  // Corrupt one cluster to a Byzantine majority by fiat: it can no longer
  // relay, but the expander's redundancy routes around it unless it is a cut
  // vertex (which an expander essentially never has).
  Metrics metrics;
  core::NowSystem system{app_params(), metrics, 3};
  system.initialize(500, 0);
  auto& state = const_cast<core::NowState&>(system.state());
  // Pick a non-source cluster and corrupt all its members.
  const auto source_node = state.live_nodes().front();
  const ClusterId source_cluster = state.home_of(source_node);
  ClusterId victim = ClusterId::invalid();
  for (const ClusterId id : state.cluster_ids()) {
    if (id != source_cluster) {
      victim = id;
      break;
    }
  }
  for (const NodeId m : state.cluster_at(victim).members()) {
    state.set_byzantine(m, true);
  }
  const auto report = broadcast(system, source_node, 9);
  // All *other* clusters still receive the value.
  EXPECT_GE(report.clusters_reached, system.num_clusters() - 1);
}

TEST(SamplingTest, SamplesAreUniformOverNodes) {
  Metrics metrics;
  core::NowSystem system{app_params(), metrics, 4};
  system.initialize(300, 45);
  const ClusterId start = system.state().cluster_ids().front();

  constexpr int kTrials = 6000;
  std::map<NodeId, std::uint64_t> counts;
  for (int i = 0; i < kTrials; ++i) {
    const auto s = sample_node(system, start);
    ASSERT_TRUE(s.node.valid());
    counts[s.node]++;
  }
  // Chi-square against uniform over all 300 nodes.
  std::vector<std::uint64_t> observed;
  std::vector<double> probs;
  for (const NodeId id : system.state().live_nodes()) {
    observed.push_back(counts[id]);
    probs.push_back(1.0 / static_cast<double>(system.num_nodes()));
  }
  const double stat = chi_square_statistic(observed, probs);
  EXPECT_GT(chi_square_p_value(stat, observed.size() - 1), 1e-4);
}

TEST(SamplingTest, CostIsPolylogSized) {
  Metrics metrics;
  core::NowSystem system{app_params(), metrics, 5};
  system.initialize(800, 0);
  const ClusterId start = system.state().cluster_ids().front();
  const auto s = sample_node(system, start);
  // Polylog budget: generous ceiling far below n^2 (= 640k at n=800).
  EXPECT_LT(s.cost.messages, 400000u);
  EXPECT_GT(s.cost.messages, 0u);
}

TEST(AggregationTest, ComputesExactSumWithHonestNodes) {
  Metrics metrics;
  core::NowSystem system{app_params(), metrics, 6};
  system.initialize(400, 0);
  const NodeId root = system.state().live_nodes().front();
  const auto report = aggregate_sum(
      system, root, [](NodeId id) { return id.value(); });
  std::uint64_t expected = 0;
  for (const NodeId id : system.state().live_nodes())
    expected += id.value();
  EXPECT_EQ(report.total, expected);
  EXPECT_TRUE(report.complete);
}

TEST(AggregationTest, ByzantineValuesOnlyShiftTheirOwnTerms) {
  Metrics metrics;
  core::NowSystem system{app_params(), metrics, 7};
  system.initialize(400, 60);
  const NodeId root = system.state().live_nodes().front();
  const auto report = aggregate_sum(
      system, root, [](NodeId) { return std::uint64_t{1}; },
      /*byzantine_value=*/0);
  // Every honest node contributes 1; Byzantine nodes contribute 0.
  EXPECT_EQ(report.total, 400u - 60u);
}

TEST(AgreementServiceTest, DecidesHonestMajority) {
  Metrics metrics;
  core::NowSystem system{app_params(), metrics, 8};
  system.initialize(400, 60);
  // All honest vote true; Byzantine vote false: decision must be true.
  const auto report = decide_majority(
      system, [](NodeId) { return true; }, /*byzantine_vote=*/false);
  EXPECT_TRUE(report.decision);
  EXPECT_TRUE(report.sound);
}

TEST(AgreementServiceTest, MinoritySideLoses) {
  Metrics metrics;
  core::NowSystem system{app_params(), metrics, 9};
  system.initialize(400, 60);
  // Honest split 70/30 toward false; Byzantine all vote true.
  Rng rng{10};
  std::map<NodeId, bool> votes;
  for (const NodeId id : system.state().live_nodes()) {
    votes[id] = rng.bernoulli(0.3);
  }
  const auto report = decide_majority(
      system, [&](NodeId id) { return votes.at(id); },
      /*byzantine_vote=*/true);
  EXPECT_FALSE(report.decision);
}

TEST(AgreementServiceTest, CheaperThanFlatAgreement) {
  Metrics metrics;
  core::NowSystem system{app_params(), metrics, 11};
  system.initialize(1000, 150, core::InitTopology::kModeledSparse);
  const auto report = decide_majority(
      system, [](NodeId) { return true; }, false);
  // Flat phase-king over 1000 nodes costs ~ 1e9 messages; the clustered
  // service must be orders of magnitude cheaper.
  EXPECT_LT(report.cost.messages, 100000000u);
}

}  // namespace
}  // namespace now::apps
