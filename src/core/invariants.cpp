#include "core/invariants.hpp"

#include <algorithm>
#include <sstream>

#include "graph/connectivity.hpp"

namespace now::core {

namespace {

void violate(InvariantReport& report, const std::string& message) {
  report.ok = false;
  report.violations.push_back(message);
}

}  // namespace

InvariantReport check_invariants(const NowState& state,
                                 const NowParams& params, bool check_sizes) {
  InvariantReport report;
  report.num_nodes = state.num_nodes();
  report.num_clusters = state.num_clusters();

  // --- I5: bookkeeping consistency, the Byzantine counts I1 reads and the
  // neighborhood populations the message charges read included (the member
  // and adjacency walks recount them as independent witnesses).
  std::size_t members_total = 0;
  for (const ClusterId id : state.cluster_ids()) {
    const auto& c = state.cluster_at(id);
    members_total += c.size();
    std::size_t byzantine_members = 0;
    for (const NodeId m : c.members()) {
      if (state.home_of(m) != id) {
        std::ostringstream os;
        os << "node " << m << " member of cluster " << id
           << " but node_home disagrees";
        violate(report, os.str());
      }
      if (state.byzantine.contains(m)) ++byzantine_members;
    }
    if (byzantine_members != state.byzantine_count(id)) {
      std::ostringstream os;
      os << "cluster " << id << " counts " << state.byzantine_count(id)
         << " Byzantine members but holds " << byzantine_members;
      violate(report, os.str());
    }
    if (!state.overlay().has(id)) {
      std::ostringstream os;
      os << "cluster " << id << " missing from overlay";
      violate(report, os.str());
    }
    const std::uint64_t population = count_neighborhood_population(state, id);
    if (population != state.neighborhood_population(id)) {
      std::ostringstream os;
      os << "cluster " << id << " keeps neighborhood population "
         << state.neighborhood_population(id) << " but its neighbors hold "
         << population;
      violate(report, os.str());
    }
  }
  if (members_total != state.num_nodes()) {
    std::ostringstream os;
    os << "partition covers " << members_total << " nodes, map has "
       << state.num_nodes();
    violate(report, os.str());
  }
  // Independent witness: the live-node registry is maintained by different
  // mutators than the placement counter, so a double-add/double-remove in
  // one of them cannot fool both checks.
  if (members_total != state.live_nodes().size()) {
    std::ostringstream os;
    os << "partition covers " << members_total << " nodes, live registry has "
       << state.live_nodes().size();
    violate(report, os.str());
  }
  if (state.overlay().num_clusters() != state.num_clusters()) {
    violate(report, "overlay vertex set differs from cluster set");
  }

  // --- I1: honest supermajorities (threshold 1/3, or 1/2 in the
  // authenticated regime of Remark 1), from the per-cluster counts.
  const double compromise_line = params.compromise_threshold();
  bool first = true;
  for (const ClusterId id : state.cluster_ids()) {
    const auto& c = state.cluster_at(id);
    const std::size_t size = c.size();
    if (first) {
      report.min_cluster_size = report.max_cluster_size = size;
      first = false;
    } else {
      report.min_cluster_size = std::min(report.min_cluster_size, size);
      report.max_cluster_size = std::max(report.max_cluster_size, size);
    }
    const double p = state.byzantine_fraction(id);
    report.worst_byz_fraction = std::max(report.worst_byz_fraction, p);
    if (size > 0 && p >= compromise_line - 1e-12) {
      ++report.compromised_clusters;
      std::ostringstream os;
      os << "cluster " << id << " compromised: byz fraction " << p;
      violate(report, os.str());
    }
  }

  // --- I2: size window (keyed to the current n in dynamic-threshold mode).
  if (check_sizes) {
    const std::size_t n_now = state.num_nodes();
    for (const ClusterId id : state.cluster_ids()) {
      const auto& c = state.cluster_at(id);
      if (state.num_clusters() > 1 &&
          c.size() < params.merge_threshold(n_now)) {
        std::ostringstream os;
        os << "cluster " << id << " under-populated: " << c.size() << " < "
           << params.merge_threshold(n_now);
        violate(report, os.str());
      }
      if (c.size() > params.split_threshold(n_now)) {
        std::ostringstream os;
        os << "cluster " << id << " over-populated: " << c.size() << " > "
           << params.split_threshold(n_now);
        violate(report, os.str());
      }
    }
  }

  // --- I3 / I4: overlay properties.
  report.overlay_max_degree = state.overlay().graph().max_degree();
  report.overlay_min_degree = state.overlay().graph().min_degree();
  if (report.overlay_max_degree > state.overlay().degree_cap()) {
    std::ostringstream os;
    os << "overlay degree " << report.overlay_max_degree << " exceeds cap "
       << state.overlay().degree_cap();
    violate(report, os.str());
  }
  report.overlay_connected = graph::is_connected(state.overlay().graph());
  if (!report.overlay_connected) violate(report, "overlay disconnected");

  return report;
}

}  // namespace now::core
