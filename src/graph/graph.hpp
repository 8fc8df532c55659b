// Dynamic undirected graph used for the OVER overlay and its analysis.
//
// Vertices are stable 64-bit keys (the NOW layer uses ClusterId values), so
// vertex additions/removals never invalidate other vertices. Determinism
// matters (whole experiments replay from one seed), so neighbor lists are
// kept sorted and vertices() reports ascending key order; vertex lookup is
// O(1) via hashing (every walk hop reads degree + neighbors, so the ordered
// map this replaces put an O(log V) factor under the protocol's hot path),
// and random_vertex is O(1) over a dense swap-and-pop vertex list.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace now::graph {

using Vertex = std::uint64_t;

/// Undirected simple graph with O(1) vertex lookup and O(deg) edge ops.
class Graph {
 public:
  /// Adds an isolated vertex. Returns false if it already exists.
  bool add_vertex(Vertex v);

  /// Removes a vertex and all incident edges. Returns false if absent.
  bool remove_vertex(Vertex v);

  /// Adds edge {u, v}. Both endpoints must exist; u != v (no self-loops).
  /// Returns false if the edge already exists.
  bool add_edge(Vertex u, Vertex v);

  [[nodiscard]] bool has_vertex(Vertex v) const;
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  [[nodiscard]] std::size_t num_vertices() const { return adjacency_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// Degree of v. Requires v to exist.
  [[nodiscard]] std::size_t degree(Vertex v) const;
  [[nodiscard]] std::size_t max_degree() const;
  [[nodiscard]] std::size_t min_degree() const;

  /// Sorted neighbors of v. Requires v to exist.
  [[nodiscard]] const std::vector<Vertex>& neighbors(Vertex v) const;

  /// Sorted neighbors of v, or an empty list when v is absent.
  [[nodiscard]] std::span<const Vertex> neighbors_if_present(Vertex v) const;

  /// All vertices in ascending key order.
  [[nodiscard]] std::vector<Vertex> vertices() const;

  /// Vertices in the internal dense (swap-and-pop) order — the order
  /// random_vertex indexes into. Snapshot serialization must preserve it:
  /// re-adding vertices in exactly this order reproduces the draw sequence.
  [[nodiscard]] const std::vector<Vertex>& vertex_order() const {
    return vertex_list_;
  }

  /// Drops every vertex and edge (snapshot restore starts from empty).
  void clear() {
    adjacency_.clear();
    vertex_list_.clear();
    num_edges_ = 0;
  }

  /// Uniformly random neighbor of v. Requires degree(v) > 0.
  [[nodiscard]] Vertex random_neighbor(Vertex v, Rng& rng) const;

  /// Uniformly random vertex. Requires the graph to be non-empty. O(1).
  [[nodiscard]] Vertex random_vertex(Rng& rng) const;

 private:
  struct VertexEntry {
    std::vector<Vertex> neighbors;  // sorted
    std::size_t list_pos = 0;       // position in vertex_list_
  };

  std::unordered_map<Vertex, VertexEntry> adjacency_;
  std::vector<Vertex> vertex_list_;  // dense, swap-and-pop order
  std::size_t num_edges_ = 0;
};

}  // namespace now::graph
