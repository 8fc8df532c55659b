#include "adversary/adversary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/snapshot.hpp"

namespace now::adversary {
namespace {

core::NowParams small_params() {
  core::NowParams p;
  p.max_size = 1 << 12;
  p.walk_mode = core::WalkMode::kSampleExact;  // fast statistical runs
  return p;
}

TEST(ScheduleTest, HoldIsConstant) {
  const auto s = ChurnSchedule::hold(100);
  EXPECT_EQ(s.target(0), 100u);
  EXPECT_EQ(s.target(999), 100u);
}

TEST(ScheduleTest, RampGrowsThenHolds) {
  const auto s = ChurnSchedule::ramp(10, 15);
  EXPECT_EQ(s.target(0), 10u);
  EXPECT_EQ(s.target(3), 13u);
  EXPECT_EQ(s.target(5), 15u);
  EXPECT_EQ(s.target(50), 15u);
}

TEST(ScheduleTest, RampShrinks) {
  const auto s = ChurnSchedule::ramp(20, 12);
  EXPECT_EQ(s.target(0), 20u);
  EXPECT_EQ(s.target(8), 12u);
  EXPECT_EQ(s.target(100), 12u);
}

TEST(ScheduleTest, OscillateTriangleWave) {
  const auto s = ChurnSchedule::oscillate(10, 14);
  EXPECT_EQ(s.target(0), 10u);
  EXPECT_EQ(s.target(2), 12u);
  EXPECT_EQ(s.target(4), 14u);
  EXPECT_EQ(s.target(6), 12u);
  EXPECT_EQ(s.target(8), 10u);
  EXPECT_EQ(s.target(12), 14u);  // periodic
}

TEST(RandomChurnTest, FollowsScheduleAndBudget) {
  Metrics metrics;
  core::NowSystem system{small_params(), metrics, 1};
  system.initialize(300, 45);
  RandomChurnAdversary adv{0.15, ChurnSchedule::ramp(300, 380)};
  Rng rng{2};
  for (std::size_t t = 1; t <= 120; ++t) adv.step(system, t, rng);
  EXPECT_NEAR(static_cast<double>(system.num_nodes()), 380.0, 3.0);
  const double frac = static_cast<double>(system.state().byzantine_total()) /
                      static_cast<double>(system.num_nodes());
  EXPECT_LE(frac, 0.16);  // never exceeds tau (+1 node rounding)
  EXPECT_GT(frac, 0.10);  // greedy corruption keeps it near tau
}

TEST(RandomChurnTest, ProtectByzantineKeepsThemAlive) {
  Metrics metrics;
  core::NowSystem system{small_params(), metrics, 3};
  system.initialize(300, 45);
  RandomChurnAdversary adv{0.15, ChurnSchedule::hold(300),
                           /*protect_byzantine=*/true};
  Rng rng{4};
  for (std::size_t t = 1; t <= 100; ++t) adv.step(system, t, rng);
  // Byzantine population never decreases below its starting point.
  EXPECT_GE(system.state().byzantine_total(), 45u);
}

TEST(JoinLeaveTest, AttackPreservesPopulationRoughly) {
  Metrics metrics;
  core::NowSystem system{small_params(), metrics, 5};
  system.initialize(300, 45);
  JoinLeaveAdversary adv{0.15, ChurnSchedule::hold(300)};
  Rng rng{6};
  for (std::size_t t = 1; t <= 100; ++t) adv.step(system, t, rng);
  EXPECT_NEAR(static_cast<double>(system.num_nodes()), 300.0, 10.0);
  EXPECT_TRUE(adv.target().valid());
}

TEST(JoinLeaveTest, TargetIsALiveCluster) {
  Metrics metrics;
  core::NowSystem system{small_params(), metrics, 7};
  system.initialize(300, 45);
  JoinLeaveAdversary adv{0.15, ChurnSchedule::hold(300)};
  Rng rng{8};
  for (std::size_t t = 1; t <= 60; ++t) {
    adv.step(system, t, rng);
    ASSERT_TRUE(system.state().has_cluster(adv.target()));
  }
}

TEST(ForcedLeaveTest, DrainsHonestFromTargetButShuffleRefills) {
  Metrics metrics;
  core::NowSystem system{small_params(), metrics, 9};
  system.initialize(300, 45);
  ForcedLeaveAdversary adv{0.15};
  Rng rng{10};
  for (std::size_t t = 1; t <= 100; ++t) adv.step(system, t, rng);
  // With shuffling on, the target cluster must still be majority-honest.
  const auto& state = system.state();
  EXPECT_LT(state.byzantine_fraction(adv.target()), 0.5);
}

TEST(AdversaryTest, BudgetHonoredAcrossStrategies) {
  for (int kind = 0; kind < 3; ++kind) {
    Metrics metrics;
    core::NowSystem system{small_params(), metrics,
                           static_cast<std::uint64_t>(20 + kind)};
    system.initialize(300, 30);  // 10% initial
    std::unique_ptr<Adversary> adv;
    const double tau = 0.10;
    switch (kind) {
      case 0:
        adv = std::make_unique<RandomChurnAdversary>(
            tau, ChurnSchedule::hold(300));
        break;
      case 1:
        adv = std::make_unique<JoinLeaveAdversary>(
            tau, ChurnSchedule::hold(300));
        break;
      default:
        adv = std::make_unique<ForcedLeaveAdversary>(tau);
        break;
    }
    Rng rng{static_cast<std::uint64_t>(kind) + 100};
    for (std::size_t t = 1; t <= 80; ++t) {
      adv->step(system, t, rng);
      const double frac =
          static_cast<double>(system.state().byzantine_total()) /
          static_cast<double>(system.num_nodes());
      ASSERT_LE(frac, tau + 2.0 / static_cast<double>(system.num_nodes()))
          << "strategy " << kind << " step " << t;
    }
  }
}

/// Sorted (cluster id, size, Byzantine count) triples.
std::vector<std::pair<std::uint64_t, std::pair<std::size_t, std::size_t>>>
signature(const core::NowSystem& system) {
  std::vector<std::pair<std::uint64_t, std::pair<std::size_t, std::size_t>>>
      sig;
  for (const ClusterId id : system.state().cluster_ids()) {
    sig.push_back({id.value(),
                   {system.state().cluster_at(id).size(),
                    system.state().byzantine_count(id)}});
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

/// Drives a strategy until `checkpoint_now` holds, checkpoints the system
/// and the strategy's own state the way scenario checkpoints do
/// (save_system, then save_state), restores both into fresh objects and
/// drives the original and the restored run 60 more steps each: every step
/// must match.
void expect_resume_identical(
    const std::function<std::unique_ptr<Adversary>()>& make,
    const core::NowParams& params, std::uint64_t seed,
    const std::function<bool(const Metrics&, std::size_t)>& checkpoint_now) {
  constexpr std::size_t kMaxBefore = 2000;
  constexpr std::size_t kAfter = 60;
  Metrics metrics_a;
  core::NowSystem a{params, metrics_a, seed};
  a.initialize(600, 60, core::InitTopology::kModeledSparse);
  const std::unique_ptr<Adversary> adv_a = make();
  Rng rng_a{seed + 1};
  std::size_t t = 0;
  while (!checkpoint_now(metrics_a, t)) {
    ASSERT_LT(t, kMaxBefore) << adv_a->name() << ": no checkpoint step";
    adv_a->step(a, ++t, rng_a);
  }

  core::SnapshotWriter saved;
  core::save_system(a, saved);
  adv_a->save_state(saved);
  Metrics metrics_b;
  core::NowSystem b{params, metrics_b, seed};
  core::SnapshotReader reader{saved.buffer()};
  core::load_system(b, reader);
  const std::unique_ptr<Adversary> adv_b = make();
  adv_b->load_state(reader);
  EXPECT_TRUE(reader.at_end()) << adv_a->name();
  Rng rng_b{0};
  rng_b.restore_state(rng_a.state());

  for (const std::size_t end = t + kAfter; t < end;) {
    ++t;
    adv_a->step(a, t, rng_a);
    adv_b->step(b, t, rng_b);
    ASSERT_EQ(signature(a), signature(b)) << adv_a->name() << " step " << t;
  }
  EXPECT_EQ(rng_a.state(), rng_b.state()) << adv_a->name();
}

bool at_step_60(const Metrics& /*metrics*/, std::size_t t) { return t == 60; }

TEST(AdversaryCheckpointTest, JoinLeaveResumesTheSameAttack) {
  expect_resume_identical(
      [] {
        return std::make_unique<JoinLeaveAdversary>(
            0.10, ChurnSchedule::hold(600));
      },
      small_params(), 31, at_step_60);
}

TEST(AdversaryCheckpointTest, ForcedLeaveResumesTheSameTarget) {
  expect_resume_identical(
      [] { return std::make_unique<ForcedLeaveAdversary>(0.10); },
      small_params(), 33, at_step_60);
}

TEST(AdversaryCheckpointTest, ThrashResumesInTheSamePhase) {
  // Checkpoint right after the first split: the strategy is then in its
  // drain phase, which only its saved state remembers.
  core::NowParams params = small_params();
  params.k = 6;
  params.tau = 0.10;
  params.l = 1.5;
  expect_resume_identical(
      [] { return std::make_unique<ThrashAdversary>(0.10); }, params, 35,
      [](const Metrics& metrics, std::size_t) {
        return metrics.operation_count(metrics.find("split")) > 0;
      });
}

}  // namespace
}  // namespace now::adversary
