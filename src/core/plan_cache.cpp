#include "core/plan_cache.hpp"

namespace now::core {

std::uint64_t neighborhood_population(const NowState& state, ClusterId c) {
  std::uint64_t total = 0;
  for (const graph::Vertex v : state.overlay.graph().neighbors(c.value())) {
    total += state.cluster_at(ClusterId{v}).size();
  }
  return total;
}

void PlanCache::build(const NowState& state, const NowParams& params) {
  const std::size_t k = state.num_clusters();
  id_by_index.clear();
  cluster_by_index.clear();
  neighborhood_by_index.clear();
  slot_by_index.clear();
  current_weight.clear();
  id_by_index.reserve(k);
  cluster_by_index.reserve(k);
  neighborhood_by_index.reserve(k);
  slot_by_index.reserve(k);
  current_weight.reserve(k);
  index_by_slot.assign(state.slot_count(), 0);
  neighborhood_by_slot.assign(state.slot_count(), 0);
  total_weight = 0;
  for (const ClusterId c : state.cluster_ids()) {
    const std::size_t slot = state.slot_index(c);
    const std::uint64_t neighborhood = neighborhood_population(state, c);
    neighborhood_by_slot[slot] = neighborhood;
    const std::size_t index = id_by_index.size();
    index_by_slot[slot] = static_cast<std::uint32_t>(index);
    slot_by_index.push_back(static_cast<std::uint32_t>(slot));
    id_by_index.push_back(c);
    cluster_by_index.push_back(&state.cluster_at(c));
    neighborhood_by_index.push_back(neighborhood);
    const std::uint64_t size = state.cluster_at(c).size();
    current_weight.push_back(size);
    total_weight += size;
  }
  rebuild_alias();
  refresh(state, params);
  valid = true;
}

void PlanCache::refresh(const NowState& state, const NowParams& params) {
  if (params.walk_mode == WalkMode::kSampleExact) {
    walk = rand_cl_cost_model(state, params);
  }
}

void PlanCache::apply_size_deltas(
    const NowState& state,
    std::span<const std::pair<std::size_t, std::int64_t>> deltas) {
  for (const auto& [slot, delta] : deltas) {
    const std::uint32_t index = index_by_slot[slot];
    current_weight[index] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(current_weight[index]) + delta);
    total_weight = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(total_weight) + delta);
    // Patch every overlay neighbor's neighborhood population. The overlay
    // is untouched between structure-preserving batches, so adjacency is
    // exactly what both the live state and the cached tables agree on.
    for (const graph::Vertex v :
         state.overlay.graph().neighbors(id_by_index[index].value())) {
      const std::size_t neighbor_slot = state.slot_index(ClusterId{v});
      neighborhood_by_slot[neighbor_slot] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(neighborhood_by_slot[neighbor_slot]) +
          delta);
      neighborhood_by_index[index_by_slot[neighbor_slot]] =
          neighborhood_by_slot[neighbor_slot];
    }
  }
  rebuild_alias();
}

void PlanCache::rebuild_alias() {
  const std::size_t k = current_weight.size();

  // Vose construction on integer weights (scaled by k so every column ends
  // with a threshold in [0, W] and one alias); exactness needs no floating
  // point.
  const std::uint64_t w = total_weight;
  std::vector<std::uint64_t> scaled(k);  // |C| * k, summing to n * k
  for (std::size_t i = 0; i < k; ++i) scaled[i] = current_weight[i] * k;
  alias_threshold.assign(k, w);
  alias_index.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    alias_index[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::size_t i = 0; i < k; ++i) {
    (scaled[i] < w ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    alias_threshold[s] = scaled[s];
    alias_index[s] = l;
    scaled[l] -= w - scaled[s];
    (scaled[l] < w ? small : large).push_back(l);
  }
  // Leftover columns (all weight variance consumed) keep threshold = W.
}

std::size_t PlanCache::draw_biased(Rng& rng) const {
  // Two uniform draws + two array loads.
  const std::size_t column = rng.uniform(alias_threshold.size());
  const std::uint64_t toss = rng.uniform(total_weight);
  return toss < alias_threshold[column] ? column : alias_index[column];
}

bool PlanCache::consistent_with(const NowState& state) const {
  if (!valid) return false;
  if (id_by_index.size() != state.num_clusters()) return false;
  std::uint64_t mass = 0;
  for (std::size_t i = 0; i < id_by_index.size(); ++i) {
    const ClusterId c = id_by_index[i];
    if (!state.has_cluster(c)) return false;
    const std::size_t slot = state.slot_index(c);
    if (slot_by_index[i] != slot || index_by_slot[slot] != i) return false;
    if (cluster_by_index[i] != &state.cluster_at(c)) return false;
    if (current_weight[i] != state.cluster_at(c).size()) return false;
    if (neighborhood_by_slot[slot] != neighborhood_population(state, c)) {
      return false;
    }
    if (neighborhood_by_index[i] != neighborhood_by_slot[slot]) return false;
    mass += current_weight[i];
  }
  return mass == total_weight && total_weight == state.num_nodes();
}

}  // namespace now::core
