// OVER — the Over-Valued Erdős–Rényi expander overlay (Section 2,
// "Background on OVER"; pseudo-code deferred by the paper to the long
// version [16], reconstructed here — see DESIGN.md §5).
//
// Vertices are clusters; an overlay edge {C, D} means every node of C is
// linked to every node of D. OVER must preserve, over polynomially many
// vertex additions and removals:
//   Property 1: isoperimetric constant I(G) >= log^{1+alpha}(N) / 2,
//   Property 2: maximum degree <= c * log^{1+alpha}(N).
//
// Reconstruction: keep the graph close to a random near-regular graph of
// target degree d* = Theta(log^{1+alpha} N).
//   * initialize: G(m, p) with p = d*/(m-1) ("over-valued" relative to the
//     connectivity threshold), then bring every vertex up to the degree
//     floor with random edges;
//   * Add(v): connect v to d* distinct random clusters (drawn through the
//     caller-supplied sampler — randCl in the full protocol), respecting the
//     degree cap;
//   * Remove(v): drop v; any ex-neighbor left under the floor draws fresh
//     random edges.
// Random near-regular graphs of degree d have edge expansion Theta(d) whp,
// which is exactly Property 1; bench_props_overlay measures both properties
// under long churn.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"

namespace now::over {

struct OverParams {
  /// N — the maximum network size; degrees scale as log^{1+alpha} N.
  std::uint64_t max_size = 1 << 16;
  /// The paper's arbitrarily small constant alpha > 0.
  double alpha = 0.1;
  /// Degree constant: d* = max(3, ceil(c * ln^{1+alpha} N)).
  double degree_constant = 1.0;
  /// Degree cap multiplier: Property 2's constant (cap = cap_factor * d*).
  double cap_factor = 3.0;
};

class Overlay {
 public:
  /// Draws a uniformly (or size-biasedly — the bias is irrelevant to the
  /// expander's structure) random *existing* cluster on behalf of
  /// `requester` (the vertex that needs a fresh edge; NOW starts the randCl
  /// walk there). Standalone tests use a plain uniform sampler that ignores
  /// the requester.
  using Sampler = std::function<ClusterId(ClusterId requester, Rng&)>;

  explicit Overlay(const OverParams& params) : params_(params) {}

  [[nodiscard]] std::size_t target_degree() const;
  [[nodiscard]] std::size_t degree_floor() const;
  [[nodiscard]] std::size_t degree_cap() const;

  /// Builds the initial overlay over `clusters` as over-valued Erdős–Rényi
  /// plus floor repair. Any previous content is discarded.
  void initialize(const std::vector<ClusterId>& clusters, Rng& rng);

  /// OVER's Add: inserts a new vertex and wires it to up to target_degree()
  /// distinct sampled clusters. Returns the chosen neighbors: with v, they
  /// are exactly the vertices whose adjacency changed.
  std::vector<ClusterId> add_vertex(ClusterId v, const Sampler& sampler,
                                    Rng& rng);

  /// OVER's Remove: deletes the vertex and repairs ex-neighbors that fell
  /// under the degree floor with fresh sampled edges. Returns the surviving
  /// vertices whose adjacency changed (the ex-neighbors and the far ends of
  /// the repair edges; a vertex may be listed more than once).
  std::vector<ClusterId> remove_vertex(ClusterId v, const Sampler& sampler,
                                       Rng& rng);

  [[nodiscard]] bool has(ClusterId v) const;
  [[nodiscard]] std::size_t degree(ClusterId v) const;
  [[nodiscard]] std::vector<ClusterId> neighbors(ClusterId v) const;
  [[nodiscard]] std::size_t num_clusters() const;

  [[nodiscard]] const graph::Graph& graph() const { return graph_; }
  [[nodiscard]] const OverParams& params() const { return params_; }

  /// Snapshot restore hook (core/snapshot.cpp): the adjacency — including
  /// its dense vertex order, which random draws index — is serialized
  /// verbatim and rebuilt through this mutable view. Not for protocol use.
  [[nodiscard]] graph::Graph& graph_for_restore() { return graph_; }

 private:
  /// Adds sampled edges to v until its degree reaches `goal` (best effort,
  /// bounded retries; respects the degree cap on both endpoints). Appends
  /// the far end of every added edge to `wired`.
  void wire_random_edges(ClusterId v, std::size_t goal, const Sampler& sampler,
                         Rng& rng, std::vector<ClusterId>& wired);

  OverParams params_;
  graph::Graph graph_;
};

}  // namespace now::over
