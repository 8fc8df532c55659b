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

/// Message units of one exchange swap (Section 3.1 `exchange`) between a
/// cluster of `c_size` members whose neighborhood holds `c_neighborhood`
/// nodes and a partner of `p_size` members and `p_neighborhood`: the
/// x <-> y handoff of both memberships (2 units each way), the 2-unit
/// composition delta each cluster multicasts to its neighborhood, and the
/// overlay info each newcomer receives from its new cluster. The notice
/// and the randNum draw are charged separately. A swap changes no size,
/// so the sizes before and after it are the same.
[[nodiscard]] inline std::uint64_t exchange_swap_units(
    std::uint64_t c_size, std::uint64_t c_neighborhood, std::uint64_t p_size,
    std::uint64_t p_neighborhood) {
  const std::uint64_t handoff_units = c_size + p_size;
  const std::uint64_t c_info = c_size + c_neighborhood;
  const std::uint64_t p_info = p_size + p_neighborhood;
  return 2 * handoff_units +
         2 * (c_size * c_neighborhood + p_size * p_neighborhood) +
         c_info * c_size + p_info * p_size;
}

/// Message units of placing a joiner (Algorithm 1) into a cluster of
/// `dest_size` members whose neighborhood holds `neighborhood` nodes,
/// reached by a randCl walk of `hops` hops: the members announce the
/// joiner to the neighborhood (1 unit) and send it its new neighborhood
/// back along the walk's path. The walk itself is charged separately.
[[nodiscard]] inline std::uint64_t join_placement_units(
    std::uint64_t dest_size, std::uint64_t neighborhood, std::uint64_t hops) {
  return dest_size * neighborhood +
         (dest_size + neighborhood) * (dest_size + hops);
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
