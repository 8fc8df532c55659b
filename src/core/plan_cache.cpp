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
  column_slot.clear();
  column_slot.reserve(state.num_clusters());
  neighborhood_by_slot.assign(state.slot_count(), 0);
  for (const ClusterId c : state.cluster_ids()) {
    const std::size_t slot = state.slot_index(c);
    neighborhood_by_slot[slot] = neighborhood_population(state, c);
    column_slot.push_back(static_cast<std::uint32_t>(slot));
  }
  rebuild_alias(state);
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
    // Patch every overlay neighbor's neighborhood population. The overlay
    // is untouched between structure-preserving batches, so adjacency is
    // exactly what both the live state and the cached tables agree on.
    for (const graph::Vertex v : state.overlay.graph().neighbors(
             state.cluster_id_at_slot(slot).value())) {
      std::uint64_t& neighborhood =
          neighborhood_by_slot[state.slot_index(ClusterId{v})];
      neighborhood = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(neighborhood) + delta);
    }
  }
  rebuild_alias(state);
}

void PlanCache::rebuild_alias(const NowState& state) {
  const std::size_t k = column_slot.size();
  const cluster::MemberSlab& slab = state.member_slab();

  // Vose construction on integer weights (scaled by k so every column ends
  // with a threshold in [0, W] and one alias); exactness needs no floating
  // point.
  std::vector<std::uint64_t> scaled(k);  // |C| * k, summing to n * k
  total_weight = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t size = slab.size(column_slot[i]);
    scaled[i] = size * k;
    total_weight += size;
  }
  const std::uint64_t w = total_weight;
  alias_threshold.assign(k, w);
  alias_slot = column_slot;
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
    alias_slot[s] = column_slot[l];
    scaled[l] -= w - scaled[s];
    (scaled[l] < w ? small : large).push_back(l);
  }
  // Leftover columns (all weight variance consumed) keep threshold = W.
}

std::uint32_t PlanCache::draw_biased(Rng& rng) const {
  // Two uniform draws + two array loads.
  const std::size_t column = rng.uniform(alias_threshold.size());
  const std::uint64_t toss = rng.uniform(total_weight);
  return toss < alias_threshold[column] ? column_slot[column]
                                        : alias_slot[column];
}

bool PlanCache::consistent_with(const NowState& state) const {
  if (!valid) return false;
  const std::span<const ClusterId> ids = state.cluster_ids();
  const std::size_t k = ids.size();
  if (column_slot.size() != k || alias_threshold.size() != k ||
      alias_slot.size() != k ||
      neighborhood_by_slot.size() != state.slot_count() ||
      total_weight != state.num_nodes()) {
    return false;
  }
  // Every column carries total_weight units: its threshold to its own
  // slot, the rest to its alias. Summed per slot, that must be |C| * k.
  std::vector<std::uint64_t> mass(state.slot_count(), 0);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t slot = state.slot_index(ids[i]);
    if (column_slot[i] != slot || alias_slot[i] >= mass.size() ||
        alias_threshold[i] > total_weight) {
      return false;
    }
    if (neighborhood_by_slot[slot] != neighborhood_population(state, ids[i])) {
      return false;
    }
    mass[slot] += alias_threshold[i];
    mass[alias_slot[i]] += total_weight - alias_threshold[i];
  }
  for (const ClusterId c : ids) {
    if (mass[state.slot_index(c)] != state.cluster_at(c).size() * k) {
      return false;
    }
  }
  return true;
}

}  // namespace now::core
