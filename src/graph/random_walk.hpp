// Random walks on graphs, in particular the continuous-time random walk
// (CTRW) the paper uses for uniform sampling.
//
// With one independent rate-1 Poisson clock per edge (equivalently: at vertex
// v wait Exp(d_v), then jump to a uniform neighbor), the CTRW's stationary
// distribution is *uniform over vertices* on any connected graph — regular or
// not (Aldous & Fill, ch. 3). That is exactly why NOW walks on the cluster
// overlay: clusters are picked uniformly even though OVER's degrees are only
// near-regular. The biased acceptance step that turns "uniform cluster" into
// "cluster with probability |C|/n" lives in core/rand_cl.*, not here.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace now::graph {

/// Result of simulating one CTRW trajectory.
struct CtrwResult {
  Vertex endpoint = 0;
  /// Number of jumps taken (each jump crosses one edge).
  std::size_t hops = 0;
};

/// Simulates a CTRW from `start` for `duration` units of continuous time.
/// Requires the start vertex to exist and every visited vertex to have
/// degree >= 1.
[[nodiscard]] CtrwResult ctrw_walk(const Graph& g, Vertex start,
                                   double duration, Rng& rng);

/// Exact CTRW endpoint distribution at time t from `start`, computed by
/// uniformization of exp(t * (A - D)). O(V^2 * terms) — small graphs only
/// (used by tests to verify uniform stationarity and mixing speed).
[[nodiscard]] std::map<Vertex, double> ctrw_distribution(const Graph& g,
                                                         Vertex start,
                                                         double t);

/// Total-variation distance between a distribution over vertices and the
/// uniform distribution on g's vertex set.
[[nodiscard]] double tv_distance_from_uniform(
    const Graph& g, const std::map<Vertex, double>& dist);

}  // namespace now::graph
