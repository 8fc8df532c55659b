#include "graph/random_walk.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "graph/erdos_renyi.hpp"

namespace now::graph {
namespace {

/// An intentionally irregular graph: a star glued to a triangle.
Graph irregular_graph() {
  Graph g;
  for (Vertex v = 0; v < 7; ++v) g.add_vertex(v);
  // star center 0 with leaves 1..3
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  // triangle 4,5,6 hooked to the star
  g.add_edge(4, 5);
  g.add_edge(5, 6);
  g.add_edge(4, 6);
  g.add_edge(3, 4);
  return g;
}

TEST(CtrwTest, StationaryDistributionIsUniformEvenOnIrregularGraphs) {
  // The paper picks CTRWs precisely because their stationary law is uniform
  // over vertices regardless of degrees (Section 1, Aldous–Fill [1]).
  const Graph g = irregular_graph();
  const auto dist = ctrw_distribution(g, 0, /*t=*/60.0);
  const double uniform = 1.0 / 7.0;
  for (const auto& [v, p] : dist) EXPECT_NEAR(p, uniform, 1e-6) << v;
  EXPECT_LT(tv_distance_from_uniform(g, dist), 1e-6);
}

TEST(CtrwTest, DistributionSumsToOne) {
  const Graph g = irregular_graph();
  for (const double t : {0.1, 1.0, 5.0}) {
    const auto dist = ctrw_distribution(g, 2, t);
    double sum = 0;
    for (const auto& [v, p] : dist) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9) << "t=" << t;
  }
}

TEST(CtrwTest, TvDistanceDecreasesWithTime) {
  const Graph g = irregular_graph();
  double prev = 1.0;
  for (const double t : {0.5, 2.0, 8.0, 32.0, 64.0}) {
    const double tv = tv_distance_from_uniform(g, ctrw_distribution(g, 1, t));
    EXPECT_LE(tv, prev + 1e-9);
    prev = tv;
  }
  EXPECT_LT(prev, 1e-4);
}

TEST(CtrwTest, SimulatedEndpointsMatchExactDistribution) {
  const Graph g = irregular_graph();
  const double t = 3.0;  // not yet mixed: distribution is nontrivial
  const auto exact = ctrw_distribution(g, 0, t);

  Rng rng{77};
  constexpr std::size_t kTrials = 40000;
  std::map<Vertex, std::uint64_t> counts;
  for (std::size_t i = 0; i < kTrials; ++i) {
    counts[ctrw_walk(g, 0, t, rng).endpoint]++;
  }
  std::vector<std::uint64_t> observed;
  std::vector<double> probs;
  for (const Vertex v : g.vertices()) {
    observed.push_back(counts[v]);
    probs.push_back(exact.at(v));
  }
  const double stat = chi_square_statistic(observed, probs);
  EXPECT_GT(chi_square_p_value(stat, observed.size() - 1), 1e-4);
}

TEST(CtrwTest, ZeroDurationStaysPut) {
  const Graph g = irregular_graph();
  Rng rng{3};
  const auto r = ctrw_walk(g, 5, 0.0, rng);
  EXPECT_EQ(r.endpoint, 5u);
  EXPECT_EQ(r.hops, 0u);
}

TEST(CtrwTest, HopsGrowWithDuration) {
  const Graph g = irregular_graph();
  Rng rng{4};
  RunningStat short_hops;
  RunningStat long_hops;
  for (int i = 0; i < 300; ++i) {
    short_hops.add(static_cast<double>(ctrw_walk(g, 0, 1.0, rng).hops));
    long_hops.add(static_cast<double>(ctrw_walk(g, 0, 10.0, rng).hops));
  }
  EXPECT_GT(long_hops.mean(), 5 * short_hops.mean());
}

TEST(CtrwTest, UniformityHoldsOnRandomGraphs) {
  Rng gen{8};
  std::vector<Vertex> verts;
  for (Vertex v = 0; v < 25; ++v) verts.push_back(v);
  Graph g;
  generate_erdos_renyi(g, verts, 0.3, gen);
  if (g.min_degree() == 0) GTEST_SKIP();
  const auto dist = ctrw_distribution(g, 3, 40.0);
  EXPECT_LT(tv_distance_from_uniform(g, dist), 1e-4);
}

}  // namespace
}  // namespace now::graph
