#include "graph/connectivity.hpp"

#include <gtest/gtest.h>

namespace now::graph {
namespace {

Graph path_graph(std::size_t n) {
  Graph g;
  for (Vertex v = 0; v < n; ++v) g.add_vertex(v);
  for (Vertex v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(ConnectivityTest, SingleComponent) {
  const Graph g = path_graph(5);
  const auto comps = connected_components(g);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 5u);
  EXPECT_TRUE(is_connected(g));
}

TEST(ConnectivityTest, TwoComponents) {
  Graph g = path_graph(4);
  g.add_vertex(100);
  g.add_vertex(101);
  g.add_edge(100, 101);
  const auto comps = connected_components(g);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].size(), 4u);
  EXPECT_EQ(comps[1].size(), 2u);
  EXPECT_FALSE(is_connected(g));
}

TEST(ConnectivityTest, EmptyGraphIsConnected) {
  EXPECT_TRUE(is_connected(Graph{}));
}

}  // namespace
}  // namespace now::graph
