#include "graph/connectivity.hpp"

#include <algorithm>
#include <deque>
#include <set>

namespace now::graph {

std::vector<std::vector<Vertex>> connected_components(const Graph& g) {
  std::set<Vertex> unvisited;
  for (const Vertex v : g.vertices()) unvisited.insert(v);

  std::vector<std::vector<Vertex>> components;
  while (!unvisited.empty()) {
    const Vertex root = *unvisited.begin();
    std::vector<Vertex> component;
    std::deque<Vertex> frontier{root};
    unvisited.erase(root);
    while (!frontier.empty()) {
      const Vertex v = frontier.front();
      frontier.pop_front();
      component.push_back(v);
      for (const Vertex u : g.neighbors(v)) {
        if (unvisited.erase(u) > 0) frontier.push_back(u);
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  return connected_components(g).size() == 1;
}

}  // namespace now::graph
