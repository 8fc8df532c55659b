// Inter-cluster communication with the majority rule (Sections 3.1–3.2).
//
// "A node receiving a message from all the nodes of a particular cluster
//  considers this message valid if and only if it receives the same message
//  from more than half of the nodes of this cluster."
//
// Sending one logical message of `units` words from cluster C to cluster D
// therefore costs |C| * |D| * units unit messages and one round. The message
// is accepted iff > |C|/2 members say the same thing — guaranteed while C has
// an honest majority; conversely a Byzantine-majority cluster can forge.
// The caller passes C's Byzantine-member count (NowState::byzantine_count),
// so every sender — walks, exchanges, planners, apps — pays O(1) for it.
#pragma once

#include <cassert>
#include <cstdint>

#include "common/metrics.hpp"
#include "common/types.hpp"
#include "cluster/cluster.hpp"

namespace now::cluster {

struct ClusterSendOutcome {
  /// The honest payload reached the majority threshold and was accepted.
  bool accepted = false;
  /// The Byzantine members alone could have forged an accepted message.
  bool forgeable = false;
  /// Full cost (messages already charged to metrics; rounds returned for the
  /// caller's critical-path accounting, always 1).
  Cost cost;
};

/// Cost of one logical cluster-to-cluster message.
[[nodiscard]] inline Cost cluster_send_cost(std::size_t from_size,
                                            std::size_t to_size,
                                            std::uint64_t units) {
  return Cost{static_cast<std::uint64_t>(from_size) *
                  static_cast<std::uint64_t>(to_size) * units,
              1};
}

/// Performs one logical message from `from` to `to`, which has
/// `from_byzantine` Byzantine members: charges the messages to `metrics`
/// and reports acceptance under the > 1/2 rule. Inline: the planners send
/// once per planned swap and read only the cost.
inline ClusterSendOutcome cluster_send(const Cluster& from, const Cluster& to,
                                       std::uint64_t units,
                                       std::size_t from_byzantine,
                                       Metrics& metrics) {
  const Cost cost = cluster_send_cost(from.size(), to.size(), units);
  metrics.add_messages(cost.messages);
  assert(from_byzantine <= from.size());
  const std::size_t honest = from.size() - from_byzantine;
  const std::size_t majority = from.size() / 2 + 1;
  return ClusterSendOutcome{honest >= majority, from_byzantine >= majority,
                            cost};
}

}  // namespace now::cluster
