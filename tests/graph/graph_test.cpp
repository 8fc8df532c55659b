#include "graph/graph.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace now::graph {
namespace {

TEST(GraphTest, AddRemoveVertex) {
  Graph g;
  EXPECT_TRUE(g.add_vertex(1));
  EXPECT_FALSE(g.add_vertex(1));
  EXPECT_TRUE(g.has_vertex(1));
  EXPECT_EQ(g.num_vertices(), 1u);
  EXPECT_TRUE(g.remove_vertex(1));
  EXPECT_FALSE(g.remove_vertex(1));
  EXPECT_EQ(g.num_vertices(), 0u);
}

TEST(GraphTest, AddEdgeIsUndirectedAndDeduplicated) {
  Graph g;
  g.add_vertex(1);
  g.add_vertex(2);
  EXPECT_TRUE(g.add_edge(1, 2));
  EXPECT_FALSE(g.add_edge(1, 2));  // duplicate
  EXPECT_FALSE(g.add_edge(2, 1));  // same edge, other direction
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, NeighborsIfPresentIsEmptyForAbsentVertices) {
  Graph g;
  for (Vertex v : {1u, 2u, 3u}) g.add_vertex(v);
  g.add_edge(2, 3);
  g.add_edge(2, 1);
  const auto present = g.neighbors_if_present(2);
  EXPECT_EQ(std::vector<Vertex>(present.begin(), present.end()),
            (std::vector<Vertex>{1, 3}));
  EXPECT_TRUE(g.neighbors_if_present(99).empty());
  g.remove_vertex(2);
  EXPECT_TRUE(g.neighbors_if_present(2).empty());
  EXPECT_TRUE(g.neighbors_if_present(1).empty());
}

TEST(GraphTest, RemoveVertexCleansIncidentEdges) {
  Graph g;
  for (Vertex v : {1u, 2u, 3u, 4u}) g.add_vertex(v);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.remove_vertex(1);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(GraphTest, NeighborsAreSorted) {
  Graph g;
  for (Vertex v : {5u, 1u, 9u, 3u}) g.add_vertex(v);
  g.add_edge(5, 9);
  g.add_edge(5, 1);
  g.add_edge(5, 3);
  const auto& nbrs = g.neighbors(5);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 3u);
}

TEST(GraphTest, DegreeBounds) {
  Graph g;
  for (Vertex v : {1u, 2u, 3u}) g.add_vertex(v);
  g.add_edge(1, 2);
  EXPECT_EQ(g.max_degree(), 1u);
  EXPECT_EQ(g.min_degree(), 0u);  // vertex 3 isolated
  g.add_edge(1, 3);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.min_degree(), 1u);
}

TEST(GraphTest, VerticesSortedAscending) {
  Graph g;
  for (Vertex v : {42u, 7u, 19u}) g.add_vertex(v);
  const auto verts = g.vertices();
  EXPECT_TRUE(std::is_sorted(verts.begin(), verts.end()));
  EXPECT_EQ(verts.size(), 3u);
}

TEST(GraphTest, RandomNeighborIsANeighbor) {
  Graph g;
  for (Vertex v : {1u, 2u, 3u, 4u}) g.add_vertex(v);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  Rng rng{99};
  for (int i = 0; i < 50; ++i) {
    const Vertex u = g.random_neighbor(1, rng);
    EXPECT_TRUE(u == 2 || u == 3);
  }
}

TEST(GraphTest, RandomVertexCoversAll) {
  Graph g;
  for (Vertex v : {1u, 2u, 3u}) g.add_vertex(v);
  Rng rng{5};
  std::set<Vertex> seen;
  for (int i = 0; i < 200; ++i) seen.insert(g.random_vertex(rng));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(GraphTest, EdgeCountConsistentUnderRandomOps) {
  Graph g;
  Rng rng{123};
  constexpr std::size_t kVerts = 30;
  for (Vertex v = 0; v < kVerts; ++v) g.add_vertex(v);
  std::size_t edges = 0;
  for (int i = 0; i < 2000; ++i) {
    const Vertex u = rng.uniform(kVerts);
    const Vertex v = rng.uniform(kVerts);
    if (u == v) continue;
    if (g.has_edge(u, v)) {
      // Drop u with every incident edge, then bring it back isolated.
      edges -= g.degree(u);
      g.remove_vertex(u);
      g.add_vertex(u);
    } else {
      g.add_edge(u, v);
      ++edges;
    }
    ASSERT_EQ(g.num_edges(), edges);
  }
  // Handshake lemma.
  std::size_t degree_sum = 0;
  for (const Vertex v : g.vertices()) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

}  // namespace
}  // namespace now::graph
