// PlanCache — the frozen-snapshot aggregates shared read-only by every
// planner thread of the batch engine (DESIGN.md §7), now a
// PERSISTENT, incrementally maintained structure instead of a per-batch
// O(k) rebuild.
//
// Clusters are addressed by their DENSE INDEX in the snapshot's
// cluster_ids() order: the wave planners draw partner clusters tens of
// thousands of times per batch, and flat arrays indexed by a dense id keep
// each draw to a couple of cache lines where the live-state accessors
// (paged slot lookup + slot table + Fenwick descend) are chains of
// dependent misses.
//
// Lifecycle:
//   * build(state, params) — the full O(k + sum degrees) construction
//     (dense tables, neighborhood populations, the exact integer Vose
//     alias table over cluster sizes);
//   * apply_size_delta(state, slot, delta) — called by the batch commit
//     for every per-slot size delta it just folded into the Fenwick
//     mirror, keeping the cache exact across batches without rebuilding:
//     neighborhood populations are patched through the overlay adjacency
//     and the alias sampler absorbs the change via a dirty overlay (below);
//   * invalidate() — any structural mutation (split/merge/create/destroy,
//     overlay rewiring, or a sequential join()/leave()) throws the cache
//     away; the next batch rebuilds.
//
// Incremental alias sampling. A Vose alias table cannot absorb point
// weight updates, so the sampler keeps the STALE table plus an exact
// correction overlay: indices whose size changed since the table was built
// go on a dirty list. A draw first splits [0, n) by the dirty clusters'
// current mass — the clean branch samples the stale table and rejects
// dirty hits (acceptance >= 1 - dirty_table_mass / table_total), the dirty
// branch scans the short dirty list by current weight. All arithmetic is
// integer, so the law is exactly |C| / n for the CURRENT sizes, same as a
// freshly built table; only the RNG draw pattern differs. When the dirty
// overlay grows past its thresholds the table is rebuilt (amortized O(k)
// every few batches instead of every batch).
#pragma once

#include <cstdint>
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
  // ------------------------------------------------- dense snapshot tables
  std::vector<ClusterId> id_by_index;
  std::vector<const cluster::Cluster*> cluster_by_index;
  std::vector<std::uint64_t> neighborhood_by_index;
  /// Dense index of a live cluster, keyed by slot (and the inverse).
  std::vector<std::uint32_t> index_by_slot;
  std::vector<std::uint32_t> slot_by_index;
  /// Sum of neighbor-cluster sizes, keyed by cluster slot.
  std::vector<std::uint64_t> neighborhood_by_slot;
  /// Modeled kSampleExact walk (cluster unset); invalid under kSimulate.
  /// Refreshed every batch (n and k move), O(1).
  RandClResult walk;

  // ------------------------------------------------------- alias sampler
  /// Stale Vose table (exact integer thresholds over table_total units).
  std::vector<std::uint64_t> alias_threshold;
  std::vector<std::uint32_t> alias_index;
  /// Weights the table was built on / current sizes, by dense index.
  std::vector<std::uint64_t> table_weight;
  std::vector<std::uint64_t> current_weight;
  std::uint64_t table_total = 0;
  /// Sum of current_weight == live node count n.
  std::uint64_t total_weight = 0;
  /// Dirty overlay: indices with current_weight != table_weight.
  std::vector<std::uint32_t> dirty_list;
  std::vector<std::uint8_t> dirty_flag;
  std::uint64_t dirty_table_mass = 0;
  std::uint64_t dirty_current_mass = 0;

  bool valid = false;

  /// Full construction from the live state (also clears the dirty overlay).
  void build(const NowState& state, const NowParams& params);

  void invalidate() { valid = false; }

  /// Per-batch refresh of the cheap derived quantities: the walk cost
  /// model (n and k move every batch), O(1).
  void refresh(const NowState& state, const NowParams& params);

  /// Folds one committed per-slot size delta (the same deltas stage 2
  /// hands FenwickTree::apply_deltas) into the cache: current weights,
  /// total mass, the dirty overlay, and every overlay neighbor's
  /// neighborhood population. Only valid between structure-preserving
  /// batches — callers must invalidate() instead when the commit split,
  /// merged, created or destroyed any cluster.
  void apply_size_delta(const NowState& state, std::size_t slot,
                        std::int64_t delta);

  /// Rebuilds the alias table when the dirty overlay crossed its mass or
  /// length threshold; call once after a batch's apply_size_delta calls.
  void maybe_rebuild_alias();

  /// Rebuilds the Vose table from current_weight (clears the overlay).
  void rebuild_alias();

  /// Snapshot restore (DESIGN.md §8): rebuilds the Vose table from the
  /// SAVED stale weights — not the current sizes — and re-marks the saved
  /// dirty overlay in its original order, reproducing draw_biased's exact
  /// draw/rejection pattern. Call right after build() on the restored
  /// state; `stale_weights` must have one entry per dense index.
  void restore_alias(std::vector<std::uint64_t> stale_weights,
                     const std::vector<std::uint32_t>& dirty);

  /// Dense index drawn with probability |C| / n (current sizes, exactly).
  [[nodiscard]] std::size_t draw_biased(Rng& rng) const;

  [[nodiscard]] std::uint64_t neighborhood(const NowState& state,
                                           ClusterId c) const {
    return neighborhood_by_slot[state.slot_index(c)];
  }

  /// Exhaustive consistency check against a fresh rebuild (sizes,
  /// neighborhood populations, dense index tables). Debug builds assert
  /// this at every batch start, so the sanitizer CI jobs verify the
  /// incremental maintenance on every batched test.
  [[nodiscard]] bool consistent_with(const NowState& state) const;

  /// Resident bytes of all dense tables and the alias sampler (capacities).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return id_by_index.capacity() * sizeof(ClusterId) +
           cluster_by_index.capacity() * sizeof(cluster_by_index[0]) +
           (neighborhood_by_index.capacity() +
            neighborhood_by_slot.capacity() + alias_threshold.capacity() +
            table_weight.capacity() + current_weight.capacity()) *
               sizeof(std::uint64_t) +
           (index_by_slot.capacity() + slot_by_index.capacity() +
            alias_index.capacity() + dirty_list.capacity()) *
               sizeof(std::uint32_t) +
           dirty_flag.capacity();
  }

 private:
  /// Vose construction over the already-set table_weight / table_total
  /// (shared by rebuild_alias and restore_alias).
  void build_alias_tables();
};

}  // namespace now::core
