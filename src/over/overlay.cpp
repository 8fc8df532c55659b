#include "over/overlay.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math_util.hpp"
#include "graph/erdos_renyi.hpp"

namespace now::over {

namespace {

graph::Vertex as_vertex(ClusterId id) { return id.value(); }
ClusterId as_cluster(graph::Vertex v) { return ClusterId{v}; }

}  // namespace

std::size_t Overlay::target_degree() const {
  const double d = params_.degree_constant *
                   log_pow(static_cast<double>(params_.max_size),
                           1.0 + params_.alpha);
  return std::max<std::size_t>(3, static_cast<std::size_t>(std::ceil(d)));
}

std::size_t Overlay::degree_floor() const {
  return std::max<std::size_t>(2, target_degree() / 2);
}

std::size_t Overlay::degree_cap() const {
  return static_cast<std::size_t>(
      std::ceil(params_.cap_factor * static_cast<double>(target_degree())));
}

void Overlay::initialize(const std::vector<ClusterId>& clusters, Rng& rng) {
  graph_ = graph::Graph{};
  std::vector<graph::Vertex> verts;
  verts.reserve(clusters.size());
  for (const ClusterId c : clusters) verts.push_back(as_vertex(c));

  const std::size_t m = verts.size();
  if (m == 0) return;
  const double p =
      m <= 1 ? 0.0
             : std::min(1.0, static_cast<double>(target_degree()) /
                                 static_cast<double>(m - 1));
  graph::generate_erdos_renyi(graph_, verts, p, rng);

  // Floor repair: ER leaves a few vertices under-connected at small m.
  const std::size_t floor_deg = std::min(degree_floor(), m - 1);
  for (const graph::Vertex v : verts) {
    while (graph_.degree(v) < floor_deg) {
      const graph::Vertex u = graph_.random_vertex(rng);
      if (u == v || graph_.has_edge(v, u)) continue;
      graph_.add_edge(v, u);
    }
  }
}

void Overlay::wire_random_edges(ClusterId v, std::size_t goal,
                                const Sampler& sampler, Rng& rng,
                                std::vector<ClusterId>& wired) {
  const graph::Vertex vv = as_vertex(v);
  const std::size_t m = graph_.num_vertices();
  if (m <= 1) return;
  const std::size_t reachable_goal = std::min(goal, m - 1);
  // Bounded retries: sampled duplicates / cap-saturated targets are skipped.
  std::size_t attempts = 0;
  const std::size_t max_attempts = 10 * goal + 20;
  while (graph_.degree(vv) < reachable_goal && attempts < max_attempts) {
    ++attempts;
    const ClusterId pick = sampler(v, rng);
    const graph::Vertex u = as_vertex(pick);
    if (u == vv || !graph_.has_vertex(u)) continue;
    if (graph_.has_edge(vv, u)) continue;
    if (graph_.degree(u) >= degree_cap()) continue;
    graph_.add_edge(vv, u);
    wired.push_back(pick);
  }
}

std::vector<ClusterId> Overlay::add_vertex(ClusterId v, const Sampler& sampler,
                                           Rng& rng) {
  const bool added = graph_.add_vertex(as_vertex(v));
  assert(added && "vertex already in overlay");
  (void)added;
  std::vector<ClusterId> neighbors;
  wire_random_edges(v, target_degree(), sampler, rng, neighbors);
  return neighbors;
}

std::vector<ClusterId> Overlay::remove_vertex(ClusterId v,
                                              const Sampler& sampler,
                                              Rng& rng) {
  assert(graph_.has_vertex(as_vertex(v)));
  const std::vector<graph::Vertex> ex_neighbors =
      graph_.neighbors(as_vertex(v));
  graph_.remove_vertex(as_vertex(v));
  std::vector<ClusterId> changed;
  const std::size_t floor_deg = degree_floor();
  for (const graph::Vertex u : ex_neighbors) {
    if (!graph_.has_vertex(u)) continue;
    changed.push_back(as_cluster(u));
    if (graph_.degree(u) < floor_deg) {
      wire_random_edges(as_cluster(u), floor_deg, sampler, rng, changed);
    }
  }
  return changed;
}

bool Overlay::has(ClusterId v) const { return graph_.has_vertex(as_vertex(v)); }

std::size_t Overlay::degree(ClusterId v) const {
  return graph_.degree(as_vertex(v));
}

std::vector<ClusterId> Overlay::neighbors(ClusterId v) const {
  std::vector<ClusterId> result;
  for (const graph::Vertex u : graph_.neighbors(as_vertex(v)))
    result.push_back(as_cluster(u));
  return result;
}

std::size_t Overlay::num_clusters() const { return graph_.num_vertices(); }

}  // namespace now::over
