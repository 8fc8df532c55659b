#include <gtest/gtest.h>

#include "adversary/adversary.hpp"

namespace now::adversary {
namespace {

core::NowParams thrash_params(double l) {
  core::NowParams p;
  p.max_size = 1 << 12;
  p.k = 6;
  p.tau = 0.10;
  p.l = l;
  p.walk_mode = core::WalkMode::kSampleExact;
  return p;
}

/// Splits plus merges the system has run so far.
std::size_t restructures(const Metrics& metrics) {
  return metrics.operation_count(metrics.find("split")) +
         metrics.operation_count(metrics.find("merge"));
}

TEST(ThrashTest, TriggersRestructuringWithoutCompromise) {
  Metrics metrics;
  core::NowSystem system{thrash_params(1.5), metrics, 1};
  system.initialize(600, 60, core::InitTopology::kModeledSparse);
  ThrashAdversary adv{0.10};
  Rng rng{2};
  const std::size_t before = restructures(metrics);
  for (std::size_t t = 1; t <= 400; ++t) adv.step(system, t, rng);
  // The attack does force restructuring...
  EXPECT_GT(restructures(metrics), before);
  // ... but the invariants survive it.
  const auto inv = system.check();
  EXPECT_TRUE(inv.ok) << (inv.violations.empty() ? "" : inv.violations[0]);
}

TEST(ThrashTest, HysteresisAmplifiesAttackCost) {
  // Larger l means more adversarial operations per induced restructuring.
  std::map<double, double> ops_per_restructure;
  for (const double l : {1.2, 2.0}) {
    Metrics metrics;
    core::NowSystem system{thrash_params(l), metrics, 3};
    system.initialize(600, 60, core::InitTopology::kModeledSparse);
    ThrashAdversary adv{0.10};
    Rng rng{4};
    const std::size_t steps = 500;
    const std::size_t before = restructures(metrics);
    for (std::size_t t = 1; t <= steps; ++t) adv.step(system, t, rng);
    const std::size_t induced = restructures(metrics) - before;
    ops_per_restructure[l] =
        induced == 0 ? static_cast<double>(steps)
                     : static_cast<double>(steps) /
                           static_cast<double>(induced);
  }
  EXPECT_GT(ops_per_restructure.at(2.0), ops_per_restructure.at(1.2));
}

TEST(ThrashTest, RespectsCorruptionBudget) {
  Metrics metrics;
  core::NowSystem system{thrash_params(1.5), metrics, 5};
  system.initialize(600, 60, core::InitTopology::kModeledSparse);
  ThrashAdversary adv{0.10};
  Rng rng{6};
  for (std::size_t t = 1; t <= 200; ++t) {
    adv.step(system, t, rng);
    const double frac =
        static_cast<double>(system.state().byzantine_total()) /
        static_cast<double>(system.num_nodes());
    ASSERT_LE(frac, 0.10 + 2.0 / static_cast<double>(system.num_nodes()));
  }
}

}  // namespace
}  // namespace now::adversary
