// Adversary strategies (Section 2, "Adversary model").
//
// The adversary is static and Byzantine: it corrupts a fraction
// tau <= 1/3 - eps of the nodes up front, may corrupt each *joining* node
// (subject to the same global budget), has full knowledge of the network
// (it sees the entire NowState, including every cluster's composition), and
// can induce churn — join-leave attacks and forcing honest nodes out (DoS).
// It cannot corrupt an existing honest node later (not adaptive).
//
// Strategies implemented:
//   * RandomChurnAdversary    — steers n along a ChurnSchedule; greedily
//     corrupts joiners up to the budget and (optionally) never removes its
//     own nodes, keeping the global Byzantine fraction pinned at tau. This
//     is the baseline workload of Theorem 3's experiments.
//   * JoinLeaveAdversary      — Section 3.3's attack: pick a victim cluster
//     and cycle Byzantine nodes through join/leave until they land in it.
//     Defeated by shuffling; defeats the no-shuffle baseline.
//   * ForcedLeaveAdversary    — DoS flavor: force honest members of the
//     victim cluster out (each forced exit is a protocol-visible leave) and
//     re-inject Byzantine joiners.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "adversary/schedule.hpp"
#include "common/rng.hpp"
#include "core/now.hpp"

namespace now::adversary {

class Adversary {
 public:
  explicit Adversary(double tau) : tau_(tau) {}
  virtual ~Adversary() = default;

  /// Executes one time step (at most one join or leave plus what the
  /// protocol induces).
  virtual void step(core::NowSystem& system, std::size_t t, Rng& rng) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Scenario-checkpoint hooks (core/snapshot.hpp, DESIGN.md §8):
  /// strategies with internal state — a chosen victim cluster, an attack
  /// phase — serialize it so a resumed scenario continues the exact
  /// trajectory. Stateless strategies keep the no-op defaults.
  virtual void save_state(core::SnapshotWriter& writer) const;
  virtual void load_state(core::SnapshotReader& reader);

  [[nodiscard]] double tau() const { return tau_; }

 protected:
  /// Greedy corruption: corrupt the joiner iff the budget tau * (n + 1)
  /// allows it — the strongest choice available to a static adversary.
  [[nodiscard]] bool corrupt_next_join(const core::NowSystem& system) const {
    const double budget =
        tau_ * static_cast<double>(system.num_nodes() + 1);
    return static_cast<double>(system.state().byzantine_total() + 1) <=
           budget;
  }

 private:
  double tau_;
};

class RandomChurnAdversary final : public Adversary {
 public:
  RandomChurnAdversary(double tau, ChurnSchedule schedule,
                       bool protect_byzantine = true)
      : Adversary(tau),
        schedule_(schedule),
        protect_byzantine_(protect_byzantine) {}

  void step(core::NowSystem& system, std::size_t t, Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "random-churn"; }

 private:
  void do_leave(core::NowSystem& system, Rng& rng);

  ChurnSchedule schedule_;
  bool protect_byzantine_;
};

class JoinLeaveAdversary final : public Adversary {
 public:
  /// `background_churn` in [0,1]: fraction of steps spent on schedule-
  /// following churn instead of the attack (the network keeps living).
  JoinLeaveAdversary(double tau, ChurnSchedule schedule,
                     double background_churn = 0.25)
      : Adversary(tau),
        fallback_(tau, schedule, /*protect_byzantine=*/true),
        background_churn_(background_churn) {}

  void step(core::NowSystem& system, std::size_t t, Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "join-leave"; }
  void save_state(core::SnapshotWriter& writer) const override;
  void load_state(core::SnapshotReader& reader) override;

  [[nodiscard]] ClusterId target() const { return target_; }

 private:
  RandomChurnAdversary fallback_;
  double background_churn_;
  ClusterId target_ = ClusterId::invalid();
};

class ForcedLeaveAdversary final : public Adversary {
 public:
  explicit ForcedLeaveAdversary(double tau) : Adversary(tau) {}

  void step(core::NowSystem& system, std::size_t t, Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "forced-leave"; }
  void save_state(core::SnapshotWriter& writer) const override;
  void load_state(core::SnapshotReader& reader) override;

  [[nodiscard]] ClusterId target() const { return target_; }

 private:
  ClusterId target_ = ClusterId::invalid();
};

/// Cost-amplification (restructuring-thrash) attack: instead of chasing a
/// takeover, the adversary tries to maximize the *price* of membership
/// maintenance by parking the population right at the split/merge
/// thresholds — joining until a split fires, then draining until the merge
/// undoes it, forever. The hysteresis l > sqrt(2) exists precisely so that
/// one operation cannot re-trigger the opposite one; this adversary
/// measures how much amplification survives the hysteresis.
class ThrashAdversary final : public Adversary {
 public:
  explicit ThrashAdversary(double tau) : Adversary(tau) {}

  void step(core::NowSystem& system, std::size_t t, Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "thrash"; }
  void save_state(core::SnapshotWriter& writer) const override;
  void load_state(core::SnapshotReader& reader) override;

 private:
  bool draining_ = false;
};

}  // namespace now::adversary
