// PlanCache — the frozen-snapshot aggregates shared read-only by every
// planner thread of the batch engine (src/core/batch.cpp, DESIGN.md §7),
// a PERSISTENT, incrementally maintained structure instead of a per-batch
// O(k + sum degrees) rebuild.
//
// Clusters are addressed by SLOT, like everywhere in the batch engine: the
// wave planners draw partner clusters tens of thousands of times per
// batch, and flat slot-keyed arrays keep each draw to a couple of cache
// lines where the live-state accessors (paged slot lookup + Fenwick
// descend) are chains of dependent misses. The alias table's columns are
// the live clusters in the cluster_ids() order of the last build; each
// column stores slots, so a draw returns a slot directly.
//
// Lifecycle:
//   * build(state, params) — the full O(k + sum degrees) construction
//     (column order, neighborhood populations, the exact integer Vose
//     alias table over cluster sizes);
//   * apply_size_deltas(state, deltas) — called once by the batch commit
//     with the per-slot size deltas it just folded into the Fenwick
//     mirror, keeping the cache exact across batches without the full
//     rebuild: neighborhood populations are patched through the overlay
//     adjacency and the O(k) Vose table is rebuilt over the slab's sizes;
//   * invalidate() — any structural mutation (split/merge/create/destroy,
//     overlay rewiring, or a sequential join()/leave()) throws the cache
//     away; the next batch rebuilds.
//
// The cache keeps no history: every field is a pure function of the
// NowState it was last brought up to date with, so an incrementally
// maintained cache and a freshly built one draw identically, and a
// snapshot need not persist any of it (core/snapshot.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/params.hpp"
#include "core/rand_cl.hpp"
#include "core/state.hpp"

namespace now::core {

/// Sum of neighbor-cluster sizes — the audience of a composition update.
/// Reads the overlay's graph adjacency directly (allocation-free). Shared
/// by the live-state charging in now.cpp and the cache maintenance here,
/// so the two can never drift.
[[nodiscard]] std::uint64_t neighborhood_population(const NowState& state,
                                                    ClusterId c);

struct PlanCache {
  /// Sum of neighbor-cluster sizes, keyed by cluster slot.
  std::vector<std::uint64_t> neighborhood_by_slot;
  /// Modeled kSampleExact walk (cluster unset); invalid under kSimulate.
  /// Refreshed every batch (n and k move), O(1).
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

  bool valid = false;

  /// Full construction from the live state.
  void build(const NowState& state, const NowParams& params);

  void invalidate() { valid = false; }

  /// Per-batch refresh of the cheap derived quantities: the walk cost
  /// model (n and k move every batch), O(1).
  void refresh(const NowState& state, const NowParams& params);

  /// Folds one batch's committed per-slot size deltas (the same deltas
  /// stage 2 hands FenwickTree::apply_deltas, in any order) into the
  /// cache: every overlay neighbor's neighborhood population, then
  /// rebuilds the Vose table over the current sizes. Only valid between
  /// structure-preserving batches — callers must invalidate() instead
  /// when the commit split, merged, created or destroyed any cluster.
  void apply_size_deltas(
      const NowState& state,
      std::span<const std::pair<std::size_t, std::int64_t>> deltas);

  /// Slot drawn with probability |C| / n (current sizes, exactly).
  [[nodiscard]] std::uint32_t draw_biased(Rng& rng) const;

  /// Exhaustive consistency check against the live state (column order,
  /// neighborhood populations, and the alias table's per-cluster mass
  /// against the current sizes). Debug builds assert this at every batch
  /// start, so the sanitizer CI jobs verify the incremental maintenance
  /// on every batched test.
  [[nodiscard]] bool consistent_with(const NowState& state) const;

  /// Resident bytes of the slot tables and the alias sampler (capacities).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return (neighborhood_by_slot.capacity() + alias_threshold.capacity()) *
               sizeof(std::uint64_t) +
           (column_slot.capacity() + alias_slot.capacity()) *
               sizeof(std::uint32_t);
  }

 private:
  /// Vose construction over the slab's current sizes of column_slot.
  void rebuild_alias(const NowState& state);
};

}  // namespace now::core
