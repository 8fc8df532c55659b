#include "graph/graph.hpp"

#include <algorithm>
#include <cassert>

namespace now::graph {

namespace {

/// Inserts value into a sorted vector; returns false if already present.
bool sorted_insert(std::vector<Vertex>& vec, Vertex value) {
  const auto it = std::lower_bound(vec.begin(), vec.end(), value);
  if (it != vec.end() && *it == value) return false;
  vec.insert(it, value);
  return true;
}

/// Erases value from a sorted vector; returns false if absent.
bool sorted_erase(std::vector<Vertex>& vec, Vertex value) {
  const auto it = std::lower_bound(vec.begin(), vec.end(), value);
  if (it == vec.end() || *it != value) return false;
  vec.erase(it);
  return true;
}

}  // namespace

bool Graph::add_vertex(Vertex v) {
  const auto [it, inserted] = adjacency_.try_emplace(v);
  if (!inserted) return false;
  it->second.list_pos = vertex_list_.size();
  vertex_list_.push_back(v);
  return true;
}

bool Graph::remove_vertex(Vertex v) {
  const auto it = adjacency_.find(v);
  if (it == adjacency_.end()) return false;
  for (const Vertex u : it->second.neighbors) {
    sorted_erase(adjacency_.at(u).neighbors, v);
    --num_edges_;
  }
  const std::size_t pos = it->second.list_pos;
  const Vertex last = vertex_list_.back();
  vertex_list_[pos] = last;
  adjacency_.at(last).list_pos = pos;
  vertex_list_.pop_back();
  adjacency_.erase(it);
  return true;
}

bool Graph::add_edge(Vertex u, Vertex v) {
  assert(u != v && "self-loops are not allowed");
  auto u_it = adjacency_.find(u);
  auto v_it = adjacency_.find(v);
  assert(u_it != adjacency_.end() && v_it != adjacency_.end() &&
         "both endpoints must exist");
  if (!sorted_insert(u_it->second.neighbors, v)) return false;
  sorted_insert(v_it->second.neighbors, u);
  ++num_edges_;
  return true;
}

bool Graph::has_vertex(Vertex v) const { return adjacency_.contains(v); }

bool Graph::has_edge(Vertex u, Vertex v) const {
  const auto it = adjacency_.find(u);
  if (it == adjacency_.end()) return false;
  return std::binary_search(it->second.neighbors.begin(),
                            it->second.neighbors.end(), v);
}

std::size_t Graph::degree(Vertex v) const {
  return adjacency_.at(v).neighbors.size();
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (const auto& [v, entry] : adjacency_) {
    best = std::max(best, entry.neighbors.size());
  }
  return best;
}

std::size_t Graph::min_degree() const {
  if (adjacency_.empty()) return 0;
  std::size_t best = adjacency_.begin()->second.neighbors.size();
  for (const auto& [v, entry] : adjacency_) {
    best = std::min(best, entry.neighbors.size());
  }
  return best;
}

const std::vector<Vertex>& Graph::neighbors(Vertex v) const {
  return adjacency_.at(v).neighbors;
}

std::span<const Vertex> Graph::neighbors_if_present(Vertex v) const {
  const auto it = adjacency_.find(v);
  if (it == adjacency_.end()) return {};
  return it->second.neighbors;
}

std::vector<Vertex> Graph::vertices() const {
  std::vector<Vertex> result = vertex_list_;
  std::sort(result.begin(), result.end());
  return result;
}

Vertex Graph::random_neighbor(Vertex v, Rng& rng) const {
  const auto& nbrs = adjacency_.at(v).neighbors;
  assert(!nbrs.empty());
  return nbrs[rng.uniform(nbrs.size())];
}

Vertex Graph::random_vertex(Rng& rng) const {
  assert(!vertex_list_.empty());
  return vertex_list_[rng.uniform(vertex_list_.size())];
}

}  // namespace now::graph
