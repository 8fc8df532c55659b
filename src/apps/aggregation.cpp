#include "apps/aggregation.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "cluster/intercluster.hpp"

namespace now::apps {

AggregationReport aggregate_sum(
    core::NowSystem& system, NodeId root,
    const std::function<std::uint64_t(NodeId)>& value,
    std::uint64_t byzantine_value) {
  OpScope scope(system.metrics(), "aggregate");
  AggregationReport report;

  const auto& state = system.state();
  const ClusterId root_cluster = state.home_of(root);

  // BFS tree rooted at the root cluster.
  std::map<ClusterId, ClusterId> parent;
  std::vector<ClusterId> order;  // BFS order (parents before children)
  parent[root_cluster] = root_cluster;
  std::deque<ClusterId> frontier{root_cluster};
  std::size_t max_depth = 0;
  std::map<ClusterId, std::size_t> depth;
  depth[root_cluster] = 0;
  while (!frontier.empty()) {
    const ClusterId c = frontier.front();
    frontier.pop_front();
    order.push_back(c);
    for (const ClusterId nb : state.overlay().neighbors(c)) {
      if (parent.contains(nb)) continue;
      parent[nb] = c;
      depth[nb] = depth.at(c) + 1;
      max_depth = std::max(max_depth, depth.at(nb));
      frontier.push_back(nb);
    }
  }
  report.complete = order.size() == state.num_clusters();

  // Local phase: members exchange values all-to-all inside each cluster.
  std::map<ClusterId, std::uint64_t> partial;
  for (const ClusterId c : order) {
    const auto members = state.cluster_at(c).members();
    const auto s = static_cast<std::uint64_t>(members.size());
    system.metrics().add_messages(s * (s - 1));
    std::uint64_t sum = 0;
    for (const NodeId m : members) {
      sum += state.byzantine.contains(m) ? byzantine_value : value(m);
    }
    partial[c] = sum;
  }

  // Convergecast: children before parents (reverse BFS order).
  bool all_relays_honest = true;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const ClusterId c = *it;
    if (c == root_cluster) continue;
    const ClusterId p = parent.at(c);
    const auto outcome = cluster::cluster_send(
        state.cluster_at(c), state.cluster_at(p), 1,
        state.byzantine_count(c), system.metrics());
    if (!outcome.accepted) all_relays_honest = false;
    partial[p] += partial[c];
  }
  report.complete = report.complete && all_relays_honest;
  report.total = partial.at(root_cluster);

  system.metrics().add_rounds(1 + max_depth);
  report.cost = scope.cost();
  return report;
}

}  // namespace now::apps
