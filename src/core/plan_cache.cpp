#include "core/plan_cache.hpp"

namespace now::core {

void PlanCache::build(const NowState& state, const NowParams& params) {
  if (params.walk_mode == WalkMode::kSampleExact) {
    walk = rand_cl_cost_model(state, params);
  }
  column_slot.clear();
  column_slot.reserve(state.num_clusters());
  for (const ClusterId c : state.cluster_ids()) {
    column_slot.push_back(static_cast<std::uint32_t>(state.slot_index(c)));
  }

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

}  // namespace now::core
