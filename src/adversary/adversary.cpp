#include "adversary/adversary.hpp"

#include "core/snapshot.hpp"

namespace now::adversary {

namespace {

/// Full knowledge: keep the target while it lives, else aim at the cluster
/// the adversary already pollutes the most.
void retarget(const core::NowSystem& system, ClusterId& target) {
  const auto& state = system.state();
  if (!target.valid() || !state.has_cluster(target)) {
    target = state.most_byzantine_cluster();
  }
}

}  // namespace

void Adversary::save_state(core::SnapshotWriter& /*writer*/) const {}
void Adversary::load_state(core::SnapshotReader& /*reader*/) {}

void JoinLeaveAdversary::save_state(core::SnapshotWriter& writer) const {
  writer.u64(target_.value());
}
void JoinLeaveAdversary::load_state(core::SnapshotReader& reader) {
  target_ = ClusterId{reader.u64()};
}

void ForcedLeaveAdversary::save_state(core::SnapshotWriter& writer) const {
  writer.u64(target_.value());
}
void ForcedLeaveAdversary::load_state(core::SnapshotReader& reader) {
  target_ = ClusterId{reader.u64()};
}

void ThrashAdversary::save_state(core::SnapshotWriter& writer) const {
  writer.u8(draining_ ? 1 : 0);
}
void ThrashAdversary::load_state(core::SnapshotReader& reader) {
  draining_ = reader.u8() != 0;
}

void RandomChurnAdversary::do_leave(core::NowSystem& system, Rng& rng) {
  const auto& state = system.state();
  if (state.num_nodes() <= 2) return;
  // The budget is a fraction of the *current* size (Section 2): when the
  // network shrinks the adversary must retire its own nodes too, or
  // byzantine_total would exceed tau * n. Within budget it sacrifices
  // honest nodes only (the strongest allowed choice).
  const double budget_after =
      tau() * static_cast<double>(state.num_nodes() - 1);
  const bool over_budget =
      static_cast<double>(state.byzantine_total()) > budget_after;
  NodeId victim = NodeId::invalid();
  if (over_budget && state.byzantine_total() > 0) {
    victim = state.byzantine.at_index(rng.uniform(state.byzantine_total()));
  } else if (protect_byzantine_ &&
             state.num_nodes() > state.byzantine_total()) {
    victim = state.random_honest_node(rng);
  } else {
    victim = state.random_node(rng);
  }
  system.leave(victim);
}

void RandomChurnAdversary::step(core::NowSystem& system, std::size_t t,
                                Rng& rng) {
  const std::size_t n = system.num_nodes();
  const std::size_t target = schedule_.target(t);
  if (n < target) {
    system.join(corrupt_next_join(system));
  } else if (n > target) {
    do_leave(system, rng);
  } else {
    // Steady state: keep churning (one out, next step one in).
    if (t % 2 == 0) {
      do_leave(system, rng);
    } else {
      system.join(corrupt_next_join(system));
    }
  }
}

void JoinLeaveAdversary::step(core::NowSystem& system, std::size_t t,
                              Rng& rng) {
  retarget(system, target_);
  if (rng.uniform01() < background_churn_) {
    fallback_.step(system, t, rng);
    retarget(system, target_);
    return;
  }

  const auto& state = system.state();
  // Find one of our nodes sitting outside the target cluster and cycle it:
  // leave now; the matching (Byzantine) join happens on the next attack
  // step because the budget freed by this leave.
  NodeId outsider = NodeId::invalid();
  for (const NodeId b : state.byzantine) {
    if (state.home_of(b) != target_) {
      outsider = b;
      break;
    }
  }
  if (outsider.valid() && state.num_nodes() > 2) {
    system.leave(outsider);
    system.join(/*byzantine_node=*/corrupt_next_join(system));
    retarget(system, target_);
  } else {
    // Everything already in the target (or nothing to move): churn instead.
    fallback_.step(system, t, rng);
    retarget(system, target_);
  }
}

void ForcedLeaveAdversary::step(core::NowSystem& system, std::size_t t,
                                Rng& rng) {
  retarget(system, target_);
  const auto& state = system.state();

  if (t % 2 == 0 && state.num_nodes() > 2) {
    // DoS an honest member of the victim cluster (a forced exit is a
    // regular leave as far as the protocol can tell).
    const auto& c = state.cluster_at(target_);
    std::vector<NodeId> honest;
    for (const NodeId m : c.members()) {
      if (!state.byzantine.contains(m)) honest.push_back(m);
    }
    if (!honest.empty()) {
      system.leave(honest[rng.uniform(honest.size())]);
      retarget(system, target_);
      return;
    }
  }
  system.join(corrupt_next_join(system));
  retarget(system, target_);
}

void ThrashAdversary::step(core::NowSystem& system, std::size_t /*t*/,
                           Rng& rng) {
  const auto& state = system.state();
  // Full knowledge: find the cluster closest to a threshold and push it
  // over. Join-pressure needs no target (randCl lands in the largest
  // cluster with the highest probability by itself); drain-pressure removes
  // members of the smallest one directly (forced leaves).
  const ClusterId min_id = [&] {
    ClusterId min_c = state.cluster_ids().front();
    std::size_t min_size = state.cluster_at(min_c).size();
    for (const ClusterId id : state.cluster_ids()) {
      const std::size_t size = state.cluster_at(id).size();
      if (size < min_size) {
        min_c = id;
        min_size = size;
      }
    }
    return min_c;
  }();

  if (draining_) {
    if (state.num_nodes() <= 3) {
      draining_ = false;
      return;
    }
    const auto& smallest = state.cluster_at(min_id);
    const NodeId victim = smallest.random_member(rng);
    const auto report = system.leave(victim);
    if (report.merges > 0) draining_ = false;  // merge fired: flip to growth
  } else {
    const auto [node, report] = system.join(corrupt_next_join(system));
    (void)node;
    if (report.splits > 0) draining_ = true;  // split fired: flip to drain
  }
}

}  // namespace now::adversary
