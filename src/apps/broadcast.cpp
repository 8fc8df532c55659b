#include "apps/broadcast.hpp"

#include <deque>
#include <map>

#include "cluster/intercluster.hpp"

namespace now::apps {

BroadcastReport broadcast(core::NowSystem& system, NodeId source,
                          std::uint64_t value) {
  OpScope scope(system.metrics(), "broadcast");
  BroadcastReport report;
  report.value = value;

  const auto& state = system.state();
  const ClusterId root = state.home_of(source);

  // Source shares the value with its own cluster.
  system.metrics().add_messages(state.cluster_at(root).size());
  std::uint64_t rounds = 1;

  // BFS flood over the overlay. A cluster is reached when some already-
  // reached honest-majority neighbor relays to it.
  std::map<ClusterId, std::size_t> depth;
  depth[root] = 0;
  std::deque<ClusterId> frontier{root};
  std::size_t max_depth = 0;
  while (!frontier.empty()) {
    const ClusterId c = frontier.front();
    frontier.pop_front();
    const std::size_t d = depth.at(c);
    for (const ClusterId nb : state.overlay().neighbors(c)) {
      if (depth.contains(nb)) continue;
      const auto outcome = cluster::cluster_send(
          state.cluster_at(c), state.cluster_at(nb), 1,
          state.byzantine_count(c), system.metrics());
      if (!outcome.accepted) continue;  // relay lacked an honest majority
      depth[nb] = d + 1;
      max_depth = std::max(max_depth, d + 1);
      frontier.push_back(nb);
    }
  }

  rounds += max_depth;
  system.metrics().add_rounds(rounds);

  report.clusters_reached = depth.size();
  report.delivered_everywhere = depth.size() == state.num_clusters();
  report.cost = scope.cost();
  return report;
}

Cost naive_broadcast_cost(std::size_t n) {
  // Flooding without structure: every node forwards the value to every
  // other node once; diameter-many rounds collapse to O(1) on the complete
  // knowledge graph.
  const auto nn = static_cast<std::uint64_t>(n);
  return Cost{nn * (nn - 1), 2};
}

}  // namespace now::apps
