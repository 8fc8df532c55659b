#include "over/overlay.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "graph/connectivity.hpp"
#include "graph/spectral.hpp"

namespace now::over {
namespace {

std::vector<ClusterId> make_clusters(std::size_t n, std::uint64_t first = 0) {
  std::vector<ClusterId> ids;
  for (std::size_t i = 0; i < n; ++i) ids.emplace_back(first + i);
  return ids;
}

/// Uniform sampler over the overlay's current vertices.
Overlay::Sampler uniform_sampler(const Overlay& overlay) {
  return [&overlay](ClusterId, Rng& rng) {
    const auto verts = overlay.graph().vertices();
    return ClusterId{verts[rng.uniform(verts.size())]};
  };
}

OverParams test_params() {
  OverParams p;
  p.max_size = 1 << 14;
  p.alpha = 0.1;
  return p;
}

TEST(OverlayTest, DegreeParametersAreConsistent) {
  Overlay overlay{test_params()};
  EXPECT_GE(overlay.target_degree(), 3u);
  EXPECT_LE(overlay.degree_floor(), overlay.target_degree());
  EXPECT_GE(overlay.degree_cap(), overlay.target_degree());
}

TEST(OverlayTest, InitializeMeetsFloorAndCap) {
  Overlay overlay{test_params()};
  Rng rng{1};
  overlay.initialize(make_clusters(60), rng);
  EXPECT_EQ(overlay.num_clusters(), 60u);
  const auto& g = overlay.graph();
  EXPECT_GE(g.min_degree(),
            std::min(overlay.degree_floor(), std::size_t{59}));
  EXPECT_LE(g.max_degree(), overlay.degree_cap());
}

TEST(OverlayTest, InitializeIsConnectedAtRealisticSizes) {
  Overlay overlay{test_params()};
  Rng rng{2};
  overlay.initialize(make_clusters(100), rng);
  EXPECT_TRUE(graph::is_connected(overlay.graph()));
}

TEST(OverlayTest, TinyOverlayDegenerate) {
  Overlay overlay{test_params()};
  Rng rng{3};
  overlay.initialize(make_clusters(2), rng);
  EXPECT_EQ(overlay.num_clusters(), 2u);
  EXPECT_TRUE(overlay.graph().has_edge(0, 1));  // floor repair links them
}

TEST(OverlayTest, AddVertexWiresTargetDegree) {
  Overlay overlay{test_params()};
  Rng rng{4};
  overlay.initialize(make_clusters(50), rng);
  const ClusterId fresh{1000};
  const auto nbrs = overlay.add_vertex(fresh, uniform_sampler(overlay), rng);
  EXPECT_EQ(overlay.degree(fresh), nbrs.size());
  EXPECT_GE(overlay.degree(fresh), overlay.degree_floor());
  EXPECT_LE(overlay.degree(fresh), overlay.degree_cap());
  for (const ClusterId nb : nbrs) EXPECT_TRUE(overlay.has(nb));
}

TEST(OverlayTest, RemoveVertexRepairsFloors) {
  Overlay overlay{test_params()};
  Rng rng{5};
  overlay.initialize(make_clusters(40), rng);
  auto sampler = uniform_sampler(overlay);
  // Remove a third of the vertices; every survivor must stay above floor.
  for (std::uint64_t v = 0; v < 13; ++v) {
    overlay.remove_vertex(ClusterId{v}, sampler, rng);
  }
  EXPECT_EQ(overlay.num_clusters(), 27u);
  EXPECT_GE(overlay.graph().min_degree(), overlay.degree_floor());
  EXPECT_LE(overlay.graph().max_degree(), overlay.degree_cap());
  EXPECT_TRUE(graph::is_connected(overlay.graph()));
}

TEST(OverlayTest, AddAndRemoveReportEveryChangedAdjacency) {
  // NowState recounts only the vertices add_vertex / remove_vertex
  // report, so every vertex whose neighbor list changed must be reported.
  Overlay overlay{test_params()};
  Rng rng{7};
  overlay.initialize(make_clusters(40), rng);
  auto sampler = uniform_sampler(overlay);
  const auto adjacency = [&overlay] {
    std::map<graph::Vertex, std::vector<graph::Vertex>> out;
    for (const graph::Vertex v : overlay.graph().vertices()) {
      out[v] = overlay.graph().neighbors(v);
    }
    return out;
  };
  std::uint64_t next_id = 1000;
  std::size_t repaired = 0;
  for (int step = 0; step < 120; ++step) {
    const auto before = adjacency();
    std::vector<ClusterId> reported;
    std::set<graph::Vertex> exempt;  // the added or removed vertex
    if (step % 3 == 0 || overlay.num_clusters() < 20) {
      const ClusterId v{next_id++};
      reported = overlay.add_vertex(v, sampler, rng);
      reported.push_back(v);
    } else {
      const auto verts = overlay.graph().vertices();
      const ClusterId v{verts[rng.uniform(verts.size())]};
      reported = overlay.remove_vertex(v, sampler, rng);
      exempt.insert(v.value());
      repaired += reported.size() - before.at(v.value()).size();
    }
    std::set<graph::Vertex> listed;
    for (const ClusterId c : reported) listed.insert(c.value());
    for (const auto& [v, neighbors] : adjacency()) {
      const auto it = before.find(v);
      if (it != before.end() && it->second == neighbors) continue;
      EXPECT_TRUE(listed.count(v) == 1) << "step " << step << " vertex " << v;
    }
    for (const graph::Vertex v : listed) {
      EXPECT_TRUE(overlay.graph().has_vertex(v) && exempt.count(v) == 0);
    }
  }
  EXPECT_GT(repaired, 0u);  // floor repair added edges at least once
}

class OverlayChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlayChurnTest, PropertiesSurviveLongChurn) {
  // Property 1 (expansion, checked spectrally) and Property 2 (degree cap)
  // after a long random add/remove sequence.
  Overlay overlay{test_params()};
  Rng rng{GetParam()};
  overlay.initialize(make_clusters(60), rng);
  auto sampler = uniform_sampler(overlay);
  std::uint64_t next_id = 1000;
  for (int step = 0; step < 400; ++step) {
    const bool add = overlay.num_clusters() < 40 ||
                     (overlay.num_clusters() < 90 && rng.bernoulli(0.5));
    if (add) {
      overlay.add_vertex(ClusterId{next_id++}, sampler, rng);
    } else {
      const auto verts = overlay.graph().vertices();
      overlay.remove_vertex(ClusterId{verts[rng.uniform(verts.size())]},
                            sampler, rng);
    }
    ASSERT_LE(overlay.graph().max_degree(), overlay.degree_cap());
  }
  EXPECT_GE(overlay.graph().min_degree(), overlay.degree_floor());
  EXPECT_TRUE(graph::is_connected(overlay.graph()));
  Rng spectral_rng{99};
  const auto est =
      graph::estimate_expansion(overlay.graph(), spectral_rng, 400);
  EXPECT_GT(est.spectral_gap, 0.2);  // solidly an expander
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayChurnTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(OverlayTest, NeighborsAccessor) {
  Overlay overlay{test_params()};
  Rng rng{6};
  overlay.initialize(make_clusters(20), rng);
  for (const auto v : overlay.graph().vertices()) {
    const auto nbrs = overlay.neighbors(ClusterId{v});
    EXPECT_EQ(nbrs.size(), overlay.degree(ClusterId{v}));
    for (const ClusterId nb : nbrs) {
      EXPECT_TRUE(overlay.graph().has_edge(v, nb.value()));
    }
  }
}

}  // namespace
}  // namespace now::over
