#include "agreement/discovery.hpp"

#include <gtest/gtest.h>

#include "graph/erdos_renyi.hpp"

namespace now::agreement {
namespace {

graph::Graph path_topology(std::size_t n) {
  graph::Graph g;
  for (graph::Vertex v = 0; v < n; ++v) g.add_vertex(v);
  for (graph::Vertex v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(DiscoveryTest, AllHonestLearnEveryone) {
  Metrics metrics;
  const auto topo = path_topology(10);
  const auto result = run_discovery(topo, {}, metrics);
  EXPECT_TRUE(result.complete);
  for (const auto& [id, known] : result.knowledge) {
    EXPECT_EQ(known.size(), 10u);
  }
}

TEST(DiscoveryTest, RoundsBoundedByDiameter) {
  Metrics metrics;
  const auto topo = path_topology(12);
  const auto result = run_discovery(topo, {}, metrics);
  // Path of 12: diameter 11, but every node starts knowing its neighbors,
  // so the flood needs at most diameter - 1 forwarding rounds.
  EXPECT_LE(result.rounds, 11u);
  EXPECT_GE(result.rounds, 1u);
}

TEST(DiscoveryTest, CompleteTopologyFinishesInOneRound) {
  Metrics metrics;
  graph::Graph topo;
  Rng rng{1};
  std::vector<graph::Vertex> verts{0, 1, 2, 3, 4};
  graph::generate_erdos_renyi(topo, verts, 1.0, rng);
  const auto result = run_discovery(topo, {}, metrics);
  EXPECT_TRUE(result.complete);
  // Everyone already knows everyone: one quiescent confirmation round where
  // fresh sets are flushed, then nothing new.
  EXPECT_LE(result.rounds, 1u);
}

TEST(DiscoveryTest, SilentByzantineCannotBlockConnectedHonest) {
  // Honest nodes 0..8 in a path, Byzantine node 9 hangs off node 0.
  Metrics metrics;
  auto topo = path_topology(9);
  topo.add_vertex(9);
  topo.add_edge(9, 0);
  const NodeSet byz{NodeId{9}};
  const auto result = run_discovery(topo, byz, metrics);
  EXPECT_TRUE(result.complete);
  // Honest still learn the Byzantine node's id (it is someone's neighbor).
  EXPECT_TRUE(result.knowledge.at(NodeId{8}).contains(NodeId{9}));
}

TEST(DiscoveryTest, ByzantineCutVertexDoesBlock) {
  // 0-1-2  3-4-5 joined only through Byzantine node 6: the honest nodes are
  // NOT connected once 6 withholds, so discovery cannot complete. This is
  // exactly why the paper assumes the adversary cannot disconnect the
  // honest component.
  graph::Graph topo;
  for (graph::Vertex v = 0; v <= 6; ++v) topo.add_vertex(v);
  topo.add_edge(0, 1);
  topo.add_edge(1, 2);
  topo.add_edge(3, 4);
  topo.add_edge(4, 5);
  topo.add_edge(2, 6);
  topo.add_edge(6, 3);
  Metrics metrics;
  const auto result = run_discovery(topo, {NodeId{6}}, metrics);
  EXPECT_FALSE(result.complete);
  EXPECT_FALSE(result.knowledge.at(NodeId{0}).contains(NodeId{5}));
}

TEST(DiscoveryTest, CostIsBoundedByNTimesEdges) {
  // Each identity crosses each directed edge at most once -> <= 2 * n * e.
  Metrics metrics;
  const std::size_t n = 16;
  const auto topo = path_topology(n);
  const auto result = run_discovery(topo, {}, metrics);
  EXPECT_LE(result.messages,
            2 * static_cast<std::uint64_t>(n) * topo.num_edges());
  EXPECT_EQ(metrics.total().messages, result.messages);
}

TEST(DiscoveryTest, GoldenCostParityAcrossTransportRefactor) {
  // Exact (messages, rounds) pinned from the pre-Transport monolithic
  // simulator; the engine rounds mapping (engine runs charged rounds + 2)
  // is part of the contract these pins guard.
  {
    Metrics metrics;
    const auto result = run_discovery(path_topology(12), {}, metrics);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.messages, 264u);
    EXPECT_EQ(result.rounds, 10u);
  }
  {
    Metrics metrics;
    graph::Graph topo;
    Rng rng{2};
    std::vector<graph::Vertex> verts{0, 1, 2, 3, 4, 5, 6, 7, 8};
    graph::generate_erdos_renyi(topo, verts, 0.5, rng);
    const auto result = run_discovery(topo, {NodeId{3}}, metrics);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.messages, 261u);
    EXPECT_EQ(result.rounds, 1u);
  }
}

TEST(DiscoveryTest, DenserTopologyCostsMore) {
  Metrics sparse_metrics;
  Metrics dense_metrics;
  Rng rng{2};
  std::vector<graph::Vertex> verts;
  for (graph::Vertex v = 0; v < 30; ++v) verts.push_back(v);

  graph::Graph dense;
  graph::generate_erdos_renyi(dense, verts, 1.0, rng);
  const auto sparse_result =
      run_discovery(path_topology(30), {}, sparse_metrics);
  const auto dense_result = run_discovery(dense, {}, dense_metrics);
  EXPECT_GT(dense_result.messages, sparse_result.messages);
}

}  // namespace
}  // namespace now::agreement
