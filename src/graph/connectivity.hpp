// Connectivity analysis, used by the overlay property checks (Property 1
// implies connectivity).
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace now::graph {

/// Connected components; each component is a sorted vertex list; components
/// are ordered by smallest member.
[[nodiscard]] std::vector<std::vector<Vertex>> connected_components(
    const Graph& g);

[[nodiscard]] bool is_connected(const Graph& g);

}  // namespace now::graph
