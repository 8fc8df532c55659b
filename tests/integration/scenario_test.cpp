// Integration tests: full NOW deployments driven by each adversary through
// the scenario harness, checking the Theorem-3 story end to end.
#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include "common/math_util.hpp"

namespace now::sim {
namespace {

ScenarioConfig base_config() {
  ScenarioConfig config;
  config.params.max_size = 1 << 12;
  config.params.k = 5;    // deterministic-test regime (see core tests)
  config.params.tau = 0.10;
  config.params.walk_mode = core::WalkMode::kSampleExact;
  config.n0 = 400;
  config.steps = 400;
  config.sample_every = 25;
  return config;
}

TEST(ScenarioTest, RandomChurnHoldsInvariants) {
  auto config = base_config();
  Metrics metrics;
  adversary::RandomChurnAdversary adv{config.params.tau,
                                      adversary::ChurnSchedule::hold(400)};
  const auto result = run_scenario(config, adv, metrics);
  EXPECT_FALSE(result.ever_compromised);
  EXPECT_LT(result.peak_byz_fraction, 1.0 / 3.0);
  EXPECT_NEAR(static_cast<double>(result.final_nodes), 400.0, 5.0);
  for (const auto& s : result.samples) {
    EXPECT_TRUE(s.overlay_connected) << "step " << s.step;
  }
}

TEST(ScenarioTest, JoinLeaveAttackIsNeutralizedByShuffling) {
  auto config = base_config();
  config.steps = 600;
  Metrics metrics;
  adversary::JoinLeaveAdversary adv{config.params.tau,
                                    adversary::ChurnSchedule::hold(400)};
  const auto result = run_scenario(config, adv, metrics);
  EXPECT_FALSE(result.ever_compromised)
      << "first compromise at step " << result.first_compromise_step;
}

TEST(ScenarioTest, ForcedLeaveAttackIsNeutralizedByShuffling) {
  auto config = base_config();
  Metrics metrics;
  adversary::ForcedLeaveAdversary adv{config.params.tau};
  const auto result = run_scenario(config, adv, metrics);
  EXPECT_FALSE(result.ever_compromised);
}

TEST(ScenarioTest, PolynomialGrowthAndShrinkage) {
  // n travels sqrt(N) -> ~N/4 -> back: the polynomial variance headline.
  auto config = base_config();
  const auto n_low = static_cast<std::size_t>(isqrt(config.params.max_size));
  const std::size_t n_high = config.params.max_size / 4;
  config.n0 = 0;  // start at sqrt(N)
  config.steps = 2 * (n_high - n_low);
  config.sample_every = 100;
  Metrics metrics;
  adversary::RandomChurnAdversary adv{
      config.params.tau, adversary::ChurnSchedule::oscillate(n_low, n_high)};
  const auto result = run_scenario(config, adv, metrics);
  EXPECT_FALSE(result.ever_compromised);
  EXPECT_GT(result.total_splits, 0u);
  EXPECT_GT(result.total_merges, 0u);
  // Cluster count tracked the growth: at peak it must have multiplied.
  std::size_t peak_clusters = 0;
  for (const auto& s : result.samples) {
    peak_clusters = std::max(peak_clusters, s.num_clusters);
  }
  EXPECT_GT(peak_clusters, 4 * result.samples.front().num_clusters);
  // ... and came back down.
  EXPECT_LT(result.final_clusters, peak_clusters / 2);
}

TEST(ScenarioTest, ClusterSizesStayLogarithmic) {
  auto config = base_config();
  config.steps = 300;
  Metrics metrics;
  adversary::RandomChurnAdversary adv{config.params.tau,
                                      adversary::ChurnSchedule::hold(400)};
  const auto result = run_scenario(config, adv, metrics);
  for (const auto& s : result.samples) {
    EXPECT_LE(s.max_cluster_size, config.params.split_threshold());
    if (s.num_clusters > 1) {
      EXPECT_GE(s.min_cluster_size, config.params.merge_threshold());
    }
  }
}

TEST(ScenarioTest, MetricsExposePerOperationCosts) {
  auto config = base_config();
  config.steps = 100;
  Metrics metrics;
  adversary::RandomChurnAdversary adv{config.params.tau,
                                      adversary::ChurnSchedule::hold(400)};
  const auto result = run_scenario(config, adv, metrics);
  EXPECT_GT(result.samples.size(), 1u);
  EXPECT_GT(metrics.operation_count(metrics.find("join")), 0u);
  EXPECT_GT(metrics.operation_count(metrics.find("leave")), 0u);
  EXPECT_GT(metrics.operation_count(metrics.find("exchange")), 0u);
  const auto joins = metrics.operation_samples(metrics.find("join"));
  for (const auto& cost : joins) {
    EXPECT_GT(cost.messages, 0u);
    EXPECT_GT(cost.rounds, 0u);
  }
}

TEST(ScenarioTest, NoShuffleBaselineFallsToTheSameAttack) {
  auto config = base_config();
  config.params.shuffle_enabled = false;
  config.params.k = 3;  // the attack bench regime
  config.params.tau = 0.15;
  config.steps = 2500;
  config.sample_every = 10;
  Metrics metrics;
  adversary::JoinLeaveAdversary adv{config.params.tau,
                                    adversary::ChurnSchedule::hold(400),
                                    /*background_churn=*/0.0};
  const auto result = run_scenario(config, adv, metrics);
  EXPECT_TRUE(result.ever_compromised)
      << "no-shuffle baseline unexpectedly survived the join-leave attack";
}

TEST(ScenarioTest, BatchedAdversaryRespectsBudgetAndIsAbsorbed) {
  // The batched adversary corrupts a tau fraction of every step's joiners
  // and churns its misplaced nodes toward the worst cluster. With
  // shuffling on, the invariants must hold exactly as under the sequential
  // join-leave attack, and the global Byzantine budget tau * n must never
  // be exceeded.
  auto config = base_config();
  config.params.k = 10;
  config.params.tau = 0.10;
  config.steps = 40;
  config.sample_every = 5;
  config.batch_ops = 8;
  config.shards = 4;
  config.batch_byz_fraction = config.params.tau;
  config.batch_placement = BatchPlacement::kTargeted;
  Metrics metrics;
  adversary::RandomChurnAdversary adv{config.params.tau,
                                      adversary::ChurnSchedule::hold(400)};
  const auto result = run_scenario(config, adv, metrics);
  EXPECT_FALSE(result.ever_compromised);
  EXPECT_EQ(metrics.operation_count(metrics.find("batch")), 40u);
  EXPECT_LT(result.peak_byz_fraction, 1.0 / 3.0);
  EXPECT_EQ(result.final_nodes, 400u);  // size-neutral batches
  // The static adversary's global budget: corruptions per step are capped
  // at tau * (n + ops), so the final total can never exceed it.
  EXPECT_LE(static_cast<double>(result.final_byzantine),
            config.params.tau *
                static_cast<double>(result.final_nodes + config.batch_ops));
}

TEST(ScenarioTest, ForcedLeaveQuotaRespectedBudgetBindsAndAbsorbed) {
  // The batched forced-leave DoS: every step the adversary forces up to
  // batch_leave_quota victims out of the worst/smallest clusters while
  // corrupting a tau fraction of the joiners. The per-step quota must be
  // respected, the static adversary's global corruption budget must still
  // bind, and NOW's shuffling must absorb the combined attack.
  auto config = base_config();
  config.params.k = 10;
  config.params.tau = 0.10;
  config.steps = 40;
  config.sample_every = 5;
  config.batch_ops = 8;
  config.shards = 4;
  config.batch_byz_fraction = config.params.tau;
  config.batch_placement = BatchPlacement::kTargeted;
  config.batch_leave_quota = 5;
  Metrics metrics;
  adversary::RandomChurnAdversary adv{config.params.tau,
                                      adversary::ChurnSchedule::hold(400)};
  const auto result = run_scenario(config, adv, metrics);
  // Quota respected every step, and the attack actually ran.
  EXPECT_LE(result.max_step_forced_leaves, config.batch_leave_quota);
  EXPECT_GT(result.total_forced_leaves, 0u);
  EXPECT_LE(result.total_forced_leaves,
            config.batch_leave_quota * config.steps);
  // Budget cap still binds under the combined attack.
  EXPECT_LE(static_cast<double>(result.final_byzantine),
            config.params.tau *
                static_cast<double>(result.final_nodes + config.batch_ops));
  // Shuffling absorbs the leave-heavy churn: invariants hold throughout.
  EXPECT_FALSE(result.ever_compromised);
  EXPECT_LT(result.peak_byz_fraction, 1.0 / 3.0);
  EXPECT_EQ(result.final_nodes, 400u);  // size-neutral batches
  EXPECT_EQ(metrics.operation_count(metrics.find("batch")), 40u);
}

TEST(ScenarioTest, ForcedLeaveQuotaWithoutCorruptionStaysHealthy) {
  // Quota-only mode (batch_byz_fraction = 0): the adversary can churn
  // honest nodes out of the worst/smallest clusters but gains nothing —
  // the merge/rejoin machinery keeps sizes legal and no cluster ever
  // approaches compromise.
  auto config = base_config();
  config.params.k = 10;
  config.steps = 30;
  config.sample_every = 5;
  config.batch_ops = 6;
  config.shards = 4;
  config.batch_leave_quota = 6;  // every leave slot is adversarial
  Metrics metrics;
  adversary::RandomChurnAdversary adv{config.params.tau,
                                      adversary::ChurnSchedule::hold(400)};
  const auto result = run_scenario(config, adv, metrics);
  EXPECT_LE(result.max_step_forced_leaves, config.batch_leave_quota);
  EXPECT_GT(result.total_forced_leaves, 0u);
  EXPECT_FALSE(result.ever_compromised);
  for (const auto& s : result.samples) {
    EXPECT_TRUE(s.overlay_connected) << "step " << s.step;
    if (s.num_clusters > 1) {
      EXPECT_GE(s.min_cluster_size, config.params.merge_threshold());
    }
  }
}

TEST(ScenarioTest, BatchedShardedChurnHoldsInvariants) {
  // The high-throughput regime: every step is a batch of 8 joins + 8
  // leaves through the sharded engine. Invariants must survive exactly as
  // under one-op-per-step churn (k scaled as in the core sharding tests).
  auto config = base_config();
  config.params.k = 10;
  config.steps = 40;
  config.sample_every = 5;
  config.batch_ops = 8;
  config.shards = 4;
  Metrics metrics;
  adversary::RandomChurnAdversary adv{config.params.tau,
                                      adversary::ChurnSchedule::hold(400)};
  const auto result = run_scenario(config, adv, metrics);
  EXPECT_FALSE(result.ever_compromised);
  EXPECT_EQ(result.final_nodes, 400u);  // batches are size-neutral
  EXPECT_EQ(metrics.operation_count(metrics.find("batch")), 40u);
  for (const auto& s : result.samples) {
    EXPECT_TRUE(s.overlay_connected) << "step " << s.step;
  }
}

TEST(ScenarioTest, HonestBatchedScenarioIsShardCountIndependent) {
  // Honest batched churn runs the one batch engine at every shard count;
  // the shard count changes wall-clock only, never the trajectory.
  auto config = base_config();
  config.params.k = 10;
  config.steps = 30;
  config.sample_every = 5;
  config.batch_ops = 8;
  ScenarioResult results[2];
  const std::size_t shard_axis[] = {1, 4};
  for (std::size_t v = 0; v < 2; ++v) {
    config.shards = shard_axis[v];
    Metrics metrics;
    adversary::RandomChurnAdversary adv{config.params.tau,
                                        adversary::ChurnSchedule::hold(400)};
    results[v] = run_scenario(config, adv, metrics);
    EXPECT_EQ(metrics.operation_count(metrics.find("batch")), 30u);
  }
  ASSERT_EQ(results[0].samples.size(), results[1].samples.size());
  for (std::size_t i = 0; i < results[0].samples.size(); ++i) {
    EXPECT_EQ(results[0].samples[i], results[1].samples[i]) << "sample " << i;
  }
  EXPECT_EQ(results[0].final_nodes, results[1].final_nodes);
  EXPECT_EQ(results[0].final_clusters, results[1].final_clusters);
  EXPECT_EQ(results[0].final_byzantine, results[1].final_byzantine);
  EXPECT_GT(results[0].total_resolve_replays, 0u);
  EXPECT_EQ(results[0].total_resolve_replays,
            results[1].total_resolve_replays);
  EXPECT_EQ(results[0].total_stage2_spills, results[1].total_stage2_spills);
}

}  // namespace
}  // namespace now::sim
