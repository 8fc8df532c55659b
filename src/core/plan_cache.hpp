// PlanCache — the frozen-snapshot aggregates shared read-only by every
// planner thread of the batch engine (src/core/batch.cpp, DESIGN.md §7),
// built once at every batch start.
//
// Clusters are addressed by SLOT, like everywhere in the batch engine: the
// wave planners draw partner clusters tens of thousands of times per
// batch, and flat slot-keyed arrays keep each draw to a couple of cache
// lines where the live-state accessors (paged slot lookup + Fenwick
// descend) are chains of dependent misses. The alias table's columns are
// the live clusters in cluster_ids() order; each column stores slots, so a
// draw returns a slot directly.
//
// The neighborhood populations the planners charge are not cached here:
// NowState keeps them exact (NowState::neighborhood_population_at_slot).
//
// Every field is a pure function of the NowState it was built from, so a
// snapshot need not persist any of it (core/snapshot.hpp). The batch
// engine keeps one PlanCache across batches only so the vectors keep
// their capacity.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/params.hpp"
#include "core/rand_cl.hpp"
#include "core/state.hpp"

namespace now::core {

struct PlanCache {
  /// Modeled kSampleExact walk (cluster unset); invalid under kSimulate.
  RandClResult walk;

  // ------------------------------------------------------- alias sampler
  /// Slot of each column: the live clusters in cluster_ids() order.
  std::vector<std::uint32_t> column_slot;
  /// Vose table (exact integer thresholds over total_weight units); a
  /// column's alias is stored as a slot.
  std::vector<std::uint64_t> alias_threshold;
  std::vector<std::uint32_t> alias_slot;
  /// Sum of the cluster sizes == live node count n.
  std::uint64_t total_weight = 0;

  /// O(k) construction from the live state: the walk cost model, the
  /// column order and the exact integer Vose alias table over the sizes.
  void build(const NowState& state, const NowParams& params);

  /// Slot drawn with probability |C| / n (current sizes, exactly).
  [[nodiscard]] std::uint32_t draw_biased(Rng& rng) const;

  /// Resident bytes of the slot tables and the alias sampler (capacities).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return alias_threshold.capacity() * sizeof(std::uint64_t) +
           (column_slot.capacity() + alias_slot.capacity()) *
               sizeof(std::uint32_t);
  }
};

}  // namespace now::core
