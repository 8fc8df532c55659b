#include "core/now.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "agreement/discovery.hpp"
#include "agreement/quorum.hpp"
#include "cluster/intercluster.hpp"
#include "cluster/rand_num.hpp"
#include "common/math_util.hpp"
#include "graph/connectivity.hpp"
#include "graph/erdos_renyi.hpp"

namespace now::core {

namespace {

/// Charges the cost of cluster `c` multicasting `units` words to every node
/// of every neighboring cluster (each member sends, majority rule applies).
void charge_neighborhood_broadcast(const NowState& state, ClusterId c,
                                   std::uint64_t units, Metrics& metrics) {
  const auto senders =
      static_cast<std::uint64_t>(state.cluster_at(c).size());
  metrics.add_messages(senders * state.neighborhood_population(c) * units);
}

}  // namespace

InitReport NowSystem::initialize(std::size_t n0, std::size_t byzantine_count,
                                 InitTopology topology) {
  assert(!initialized_);
  assert(n0 >= 2 && byzantine_count < n0);
  OpScope scope(metrics_, "init");
  InitReport report;
  report.n0 = n0;

  // --- Create identities; the static adversary corrupts its fraction now.
  std::vector<NodeId> ids;
  ids.reserve(n0);
  for (std::size_t i = 0; i < n0; ++i) ids.push_back(state_.fresh_node_id());
  for (const std::size_t index : rng_.sample_distinct(n0, byzantine_count)) {
    state_.set_byzantine(ids[index], true);
  }

  // --- Phase 1: network discovery (all honest nodes learn all identities),
  // flooding over the initial knowledge topology.
  if (topology == InitTopology::kModeledSparse) {
    OpScope discovery_scope(metrics_, "init.discovery");
    const double nd = static_cast<double>(n0);
    const double degree = log_pow(nd, 2.0) + 3.0;
    const double edges = nd * degree / 2.0;
    metrics_.add_messages(static_cast<std::uint64_t>(nd * edges));
    metrics_.add_rounds(static_cast<std::uint64_t>(std::ceil(log_n(nd))));
    report.discovery = discovery_scope.cost();
    report.discovery_complete = true;
  } else {
    graph::Graph topo;
    std::vector<graph::Vertex> verts;
    verts.reserve(n0);
    for (const NodeId id : ids) verts.push_back(id.value());
    if (topology == InitTopology::kComplete) {
      graph::generate_erdos_renyi(topo, verts, 1.0, rng_);
    } else {
      const double degree =
          log_pow(static_cast<double>(n0), 2.0) + 3.0;  // polylog knowledge
      const double p = std::min(1.0, degree / static_cast<double>(n0 - 1));
      graph::generate_erdos_renyi(topo, verts, p, rng_);
      // The model assumes the honest nodes start connected; patch the rare
      // disconnected sample by bridging components.
      auto components = graph::connected_components(topo);
      for (std::size_t i = 1; i < components.size(); ++i) {
        topo.add_edge(components[0][0], components[i][0]);
      }
    }
    OpScope discovery_scope(metrics_, "init.discovery");
    const auto discovery =
        agreement::run_discovery(topo, state_.byzantine, metrics_);
    report.discovery = discovery_scope.cost();
    report.discovery_complete = discovery.complete;
  }

  // --- Phase 2: representative cluster via scalable BA ([19]; DESIGN.md §5).
  std::vector<NodeId> representative;
  {
    OpScope quorum_scope(metrics_, "init.quorum");
    const std::size_t rep_size =
        std::min(params_.cluster_size_target(n0), n0);
    auto quorum = agreement::build_representative_quorum(ids, rep_size,
                                                         metrics_, rng_);
    representative = std::move(quorum.committee);
    report.quorum = quorum_scope.cost();
  }

  // --- Phase 3: the representative cluster orders the nodes at random
  // (one randNum call per Fisher–Yates step) and cuts the order into
  // clusters of ~ k log N nodes.
  {
    OpScope partition_scope(metrics_, "init.partition");
    std::uint64_t rounds = 0;
    for (std::size_t i = 0; i < n0; ++i) {
      const auto draw = cluster::rand_num_value(
          representative.size(), std::max<std::uint64_t>(2, n0 - i),
          params_.rand_num_mode, metrics_, rng_);
      rounds += draw.cost.rounds;
    }
    rng_.shuffle(std::span<NodeId>(ids));

    const std::size_t target = params_.cluster_size_target(n0);
    const std::size_t num_clusters = std::max<std::size_t>(1, n0 / target);
    std::vector<ClusterId> cluster_ids;
    cluster_ids.reserve(num_clusters);
    for (std::size_t c = 0; c < num_clusters; ++c) {
      cluster_ids.push_back(state_.create_cluster());
    }
    for (std::size_t i = 0; i < n0; ++i) {
      const ClusterId cid = cluster_ids[i % num_clusters];
      state_.add_member(cid, ids[i]);
      state_.register_node(ids[i]);
    }

    // Overlay wiring: for each pair of clusters, the representative cluster
    // draws the ER coin (we charge one randNum per pair).
    state_.initialize_overlay(cluster_ids, rng_);
    const std::uint64_t pair_count =
        static_cast<std::uint64_t>(num_clusters) *
        std::max<std::uint64_t>(1, num_clusters - 1) / 2;
    const Cost coin =
        cluster::rand_num_cost_model(representative.size(),
                                     params_.rand_num_mode);
    metrics_.add_messages(coin.messages * pair_count);
    rounds += coin.rounds;

    // The representative cluster tells each node its cluster, the members,
    // and the adjacent clusters' compositions.
    std::uint64_t inform_messages = 0;
    for (const ClusterId cid : state_.cluster_ids()) {
      const auto& c = state_.cluster_at(cid);
      const std::uint64_t info_units =
          static_cast<std::uint64_t>(c.size()) +
          state_.neighborhood_population(cid);
      inform_messages += static_cast<std::uint64_t>(representative.size()) *
                         static_cast<std::uint64_t>(c.size()) * info_units;
    }
    metrics_.add_messages(inform_messages);
    rounds += 2;
    metrics_.add_rounds(rounds);
    report.partition = partition_scope.cost();
    report.num_clusters = num_clusters;
  }

  report.total = scope.cost();
  initialized_ = true;
  return report;
}

RandClResult NowSystem::rand_cl_from(ClusterId start) {
  return run_rand_cl(state_, params_, start, metrics_, rng_);
}

over::Overlay::Sampler NowSystem::overlay_sampler(std::uint64_t* rounds_max) {
  return [this, rounds_max](ClusterId requester, Rng& rng) -> ClusterId {
    (void)rng;  // walks draw from the system rng for reproducibility
    ClusterId start = requester;
    if (!state_.has_cluster(start) ||
        state_.overlay().degree(start) == 0) {
      // A vertex being wired for the first time cannot start a walk on its
      // own (no edges yet); its sponsor launches the walk instead. Fall back
      // to a uniformly chosen live cluster as the sponsor.
      start = state_.random_cluster_uniform(rng_);
    }
    const auto walk = rand_cl_from(start);
    if (rounds_max != nullptr) {
      *rounds_max = std::max(*rounds_max, walk.cost.rounds);
    }
    return walk.cluster;
  };
}

Cost NowSystem::exchange_all(ClusterId c,
                             std::vector<ClusterId>* partners_out) {
  OpScope scope(metrics_, "exchange");
  std::uint64_t rounds_max = 0;

  // Deep copy: the exchange below mutates membership (and may relocate
  // slab extents), so the frozen snapshot cannot be a span over the slab.
  const std::span<const NodeId> snapshot_view = state_.cluster_at(c).members();
  const std::vector<NodeId> snapshot(snapshot_view.begin(),
                                     snapshot_view.end());
  // Distinct partner clusters this exchange touched; linear dedup is fine —
  // a cluster has polylog members, so the list stays tiny.
  std::vector<ClusterId> partners;
  for (const NodeId x : snapshot) {
    // Pick the counterpart cluster with randCl (law |C'|/n). The paper
    // exchanges "with nodes chosen at random from other clusters", so a
    // walk that lands back home is re-run (bounded retries; with one
    // cluster there is nobody to swap with and the swap is skipped).
    ClusterId partner = c;
    std::uint64_t chain_rounds = 0;
    for (int attempt = 0; attempt < 8 && partner == c; ++attempt) {
      const auto walk = rand_cl_from(c);
      chain_rounds += walk.cost.rounds;
      partner = walk.cluster;
    }
    if (partner != c) {
      if (std::find(partners.begin(), partners.end(), partner) ==
          partners.end()) {
        partners.push_back(partner);
      }
      const auto& from = state_.cluster_at(c);
      const auto& to = state_.cluster_at(partner);
      // Tell C' it will receive x.
      const auto notice = cluster::cluster_send(
          from, to, 1, state_.byzantine_count(c), metrics_);
      chain_rounds += notice.cost.rounds;
      // C' picks the replacement uniformly via randNum.
      const auto draw = cluster::rand_num_value(
          to.size(), to.size(), params_.rand_num_mode, metrics_, rng_);
      chain_rounds += draw.cost.rounds;
      const NodeId y = to.member_at(draw.value);
      // Swap x <-> y; both sides hand over membership + overlay knowledge,
      // announce the composition delta to their neighborhoods, and the
      // newcomers learn the local overlay structure (one round each). A
      // swap changes no size, so no population moves either.
      state_.swap_members(x, c, y, partner);
      metrics_.add_messages(cluster::exchange_swap_units(
          from.size(), state_.neighborhood_population(c), to.size(),
          state_.neighborhood_population(partner)));
      chain_rounds += 2;
    }
    rounds_max = std::max(rounds_max, chain_rounds);
  }

  if (partners_out != nullptr) *partners_out = std::move(partners);
  Cost cost = scope.cost();
  cost.rounds = rounds_max;
  return cost;
}

std::uint64_t NowSystem::place_node(NodeId node, OpReport& report) {
  // Algorithm 1. The node contacts an arbitrary cluster; that cluster picks
  // the destination with randCl.
  const ClusterId contact = state_.random_cluster_uniform(rng_);
  const auto walk = rand_cl_from(contact);
  std::uint64_t rounds = walk.cost.rounds;
  const ClusterId target = walk.cluster;

  state_.add_member(target, node);

  // Members of C' announce x to the neighboring clusters and send x its
  // new neighborhood back along the walk's path.
  metrics_.add_messages(cluster::join_placement_units(
      state_.cluster_at(target).size(), state_.neighborhood_population(target),
      walk.hops));
  rounds += 2;

  // Shuffle: the receiving cluster exchanges all of its nodes.
  if (params_.shuffle_enabled) {
    const Cost exchange_cost = exchange_all(target);
    rounds += exchange_cost.rounds;
  }

  // Induced split.
  if (state_.cluster_at(target).size() >
      params_.split_threshold(state_.num_nodes())) {
    rounds += do_split(target, report);
  }
  return rounds;
}

std::pair<NodeId, OpReport> NowSystem::join(bool byzantine_node) {
  assert(initialized_);
  OpScope scope(metrics_, "join");
  OpReport report;

  const NodeId node = state_.fresh_node_id();
  if (trace_sink_ != nullptr) trace_sink_->on_join(node, byzantine_node);
  if (byzantine_node) state_.set_byzantine(node, true);
  state_.register_node(node);
  const std::uint64_t rounds = place_node(node, report);
  metrics_.add_rounds(rounds);

  report.cost = scope.cost();
  return {node, report};
}

OpReport NowSystem::leave(NodeId node) {
  assert(initialized_);
  if (trace_sink_ != nullptr) trace_sink_->on_leave(node);
  OpScope scope(metrics_, "leave");
  OpReport report;

  const ClusterId c = state_.home_of(node);
  assert(c.valid() && "leave() of a node that is not placed");
  state_.remove_member(c, node);
  state_.set_byzantine(node, false);
  state_.unregister_node(node);

  // Members of C tell their neighbors to drop x (majority-accepted delta).
  charge_neighborhood_broadcast(state_, c, 1, metrics_);
  std::uint64_t rounds = 1;

  if (params_.shuffle_enabled && state_.cluster_at(c).size() > 0) {
    // C exchanges all of its nodes...
    std::vector<ClusterId> partners;
    const Cost primary = exchange_all(c, &partners);
    rounds += primary.rounds;
    // ... and every cluster that swapped with C exchanges all of its own
    // nodes too (Theorem 3's proof relies on this second wave). The waves
    // run in parallel: rounds combine by max.
    std::uint64_t secondary_max = 0;
    for (const ClusterId partner : partners) {
      if (!state_.has_cluster(partner)) continue;
      const Cost secondary = exchange_all(partner);
      secondary_max = std::max(secondary_max, secondary.rounds);
    }
    rounds += secondary_max;
  }

  // Induced merge.
  if (state_.num_clusters() > 1 &&
      state_.cluster_at(c).size() <
          params_.merge_threshold(state_.num_nodes())) {
    rounds += do_merge(c, report);
  }

  metrics_.add_rounds(rounds);
  report.cost = scope.cost();
  return report;
}

std::uint64_t NowSystem::do_split(ClusterId c, OpReport& report) {
  OpScope scope(metrics_, "split");
  report.splits += 1;
  std::uint64_t rounds = 0;

  // Random bisection: one randNum call per Fisher–Yates step. Deep copy —
  // the moves below carve the slab, invalidating spans over it.
  const std::span<const NodeId> member_view = state_.cluster_at(c).members();
  std::vector<NodeId> members(member_view.begin(), member_view.end());
  for (std::size_t i = 0; i + 1 < members.size(); ++i) {
    const auto draw = cluster::rand_num_value(
        members.size(), members.size() - i, params_.rand_num_mode, metrics_,
        rng_);
    rounds += draw.cost.rounds;
  }
  rng_.shuffle(std::span<NodeId>(members));

  const ClusterId fresh = state_.create_cluster();
  const std::size_t half = members.size() / 2;
  for (std::size_t i = half; i < members.size(); ++i) {
    state_.move_node(members[i], c, fresh);
  }

  // C1 (= c) keeps its id and neighbors; C2 joins the overlay through
  // OVER's Add, drawing its neighbors with randCl (walks run in parallel).
  std::uint64_t wiring_rounds = 0;
  state_.add_overlay_vertex(fresh, overlay_sampler(&wiring_rounds), rng_);
  rounds += wiring_rounds;

  // The split is announced to C1's neighborhood; C2 exchanges composition
  // knowledge with its new neighbors.
  charge_neighborhood_broadcast(state_, c, 2, metrics_);
  const std::uint64_t c2_size = state_.cluster_at(fresh).size();
  const std::uint64_t c2_info =
      c2_size + state_.neighborhood_population(fresh);
  metrics_.add_messages(c2_info * c2_size);
  rounds += 2;

  (void)scope;
  return rounds;
}

std::uint64_t NowSystem::do_merge(ClusterId c, OpReport& report) {
  OpScope scope(metrics_, "merge");
  report.merges += 1;
  std::uint64_t rounds = 0;

  if (params_.merge_policy == MergePolicy::kAbsorb) {
    // Figure-2 variant: absorb the members of a randCl-chosen victim
    // cluster (re-walking when the walk lands back home — the victim must
    // be a different cluster).
    ClusterId victim = c;
    for (int attempt = 0; attempt < 32 && victim == c; ++attempt) {
      const auto walk = rand_cl_from(c);
      rounds += walk.cost.rounds;
      victim = walk.cluster;
    }
    if (victim == c) return rounds;  // pathological: give up this step
    const std::span<const NodeId> moving_view =
        state_.cluster_at(victim).members();
    const std::vector<NodeId> moving(moving_view.begin(), moving_view.end());
    for (const NodeId x : moving) state_.move_node(x, victim, c);
    charge_neighborhood_broadcast(state_, victim, 1, metrics_);
    std::uint64_t repair_rounds = 0;
    state_.remove_overlay_vertex(victim, overlay_sampler(&repair_rounds),
                                 rng_);
    state_.destroy_cluster(victim);
    rounds += repair_rounds + 1;
    charge_neighborhood_broadcast(state_, c, moving.size(), metrics_);
    rounds += 1;
    if (state_.cluster_at(c).size() >
        params_.split_threshold(state_.num_nodes())) {
      rounds += do_split(c, report);
    }
    return rounds;
  }

  // Algorithm 2 variant: the undersized cluster dissolves; members re-join
  // (deep copy — the removals below edit the slab extent under the span).
  const std::span<const NodeId> member_view = state_.cluster_at(c).members();
  const std::vector<NodeId> members(member_view.begin(), member_view.end());
  charge_neighborhood_broadcast(state_, c, 1, metrics_);  // "C is removed"
  rounds += 1;
  for (const NodeId x : members) {
    state_.remove_member(c, x);
  }
  std::uint64_t repair_rounds = 0;
  state_.remove_overlay_vertex(c, overlay_sampler(&repair_rounds), rng_);
  state_.destroy_cluster(c);
  rounds += repair_rounds;

  // Members re-join via Algorithm 1 (the paper staggers them over the next
  // time steps; we run them back-to-back inside this operation and account
  // their rounds sequentially, which is the same critical path).
  for (const NodeId x : members) {
    OpScope rejoin_scope(metrics_, "rejoin");
    report.rejoins += 1;
    rounds += place_node(x, report);
  }
  (void)scope;
  return rounds;
}

}  // namespace now::core
