#include "graph/random_walk.hpp"

#include <cassert>
#include <cmath>
#include <unordered_map>
#include <vector>

namespace now::graph {

CtrwResult ctrw_walk(const Graph& g, Vertex start, double duration, Rng& rng) {
  assert(g.has_vertex(start));
  CtrwResult result;
  result.endpoint = start;
  double remaining = duration;
  while (true) {
    const std::size_t deg = g.degree(result.endpoint);
    assert(deg > 0 && "CTRW requires positive degrees");
    const double hold = rng.exponential(static_cast<double>(deg));
    if (hold >= remaining) break;
    remaining -= hold;
    result.endpoint = g.random_neighbor(result.endpoint, rng);
    ++result.hops;
  }
  return result;
}

std::map<Vertex, double> ctrw_distribution(const Graph& g, Vertex start,
                                           double t) {
  assert(g.has_vertex(start));
  const auto verts = g.vertices();
  const std::size_t n = verts.size();
  std::unordered_map<Vertex, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) index[verts[i]] = i;

  // Uniformization: exp(tQ) = sum_k Poisson(Lambda*t; k) * P^k with
  // P = I + Q / Lambda, Q = A - D, Lambda >= max degree.
  const double lambda = static_cast<double>(g.max_degree()) + 1.0;
  const double lt = lambda * t;
  // Enough terms for the Poisson tail to be negligible.
  const auto terms = static_cast<std::size_t>(
      std::ceil(lt + 12.0 * std::sqrt(lt + 1.0) + 30.0));

  std::vector<double> v(n, 0.0);
  v[index.at(start)] = 1.0;
  std::vector<double> result(n, 0.0);
  std::vector<double> next(n, 0.0);

  // Running Poisson weight, computed in log space for stability.
  double log_weight = -lt;  // k = 0
  for (std::size_t k = 0; k <= terms; ++k) {
    const double w = std::exp(log_weight);
    for (std::size_t i = 0; i < n; ++i) result[i] += w * v[i];
    // v <- P v  (row-stochastic P acts on distributions from the left; P is
    // symmetric here because Q is symmetric).
    for (std::size_t i = 0; i < n; ++i) {
      const double deg = static_cast<double>(g.degree(verts[i]));
      double acc = (1.0 - deg / lambda) * v[i];
      for (const Vertex u : g.neighbors(verts[i])) {
        acc += v[index.at(u)] / lambda;
      }
      next[i] = acc;
    }
    v.swap(next);
    log_weight += std::log(lt) - std::log(static_cast<double>(k) + 1.0);
  }

  std::map<Vertex, double> dist;
  for (std::size_t i = 0; i < n; ++i) dist[verts[i]] = result[i];
  return dist;
}

double tv_distance_from_uniform(const Graph& g,
                                const std::map<Vertex, double>& dist) {
  const double uniform = 1.0 / static_cast<double>(g.num_vertices());
  double tv = 0.0;
  for (const Vertex v : g.vertices()) {
    const auto it = dist.find(v);
    const double p = it == dist.end() ? 0.0 : it->second;
    tv += std::fabs(p - uniform);
  }
  return tv / 2.0;
}

}  // namespace now::graph
