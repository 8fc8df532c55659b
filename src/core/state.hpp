// Shared mutable state of a NOW deployment: the cluster partition, the
// node -> cluster map, the OVER overlay, and the (simulation-only) ground
// truth of which nodes the adversary controls.
//
// NowState also owns each cluster's neighborhood population — the sum of
// its overlay neighbors' sizes, the audience every composition update is
// charged against. Size changes add their delta to the changed cluster's
// neighbors, and the overlay is only readable from outside: its edges
// change through initialize_overlay / add_overlay_vertex /
// remove_overlay_vertex, which recount the clusters whose adjacency
// changed. An exchange swap (swap_members) changes no size, so it moves
// no population and no Fenwick entry.
//
// Protocol code never *reads* the byzantine set to make decisions — honest
// logic is oblivious to it. It is consulted only (a) by primitives whose
// outcome genuinely depends on adversarial membership (e.g. the inter-
// cluster majority rule) and (b) by invariant checks, metrics and the
// adversaries — the adversary's full knowledge in the paper's model. They
// read p_C from ONE Byzantine count per cluster, kept exact by every
// membership mutator and set_byzantine (the only way to mark a node).
//
// Storage layout (the flat-state refactor + the membership slab): every
// container on the join/leave/exchange hot path is O(1) or O(log k)
// amortized.
//   * clusters — a slot table (vector + free list) addressed through a paged
//     ClusterId -> slot index, with a dense list of live ids for O(1)
//     uniform sampling;
//   * member lists — ONE flat NodeId pool (cluster/member_slab.hpp) carved
//     into per-slot extents with amortized headroom; each Cluster is a thin
//     view over its extent, so stage-1 member-edit workers stream
//     sequential memory instead of chasing k separate vectors. The slab
//     lives behind a unique_ptr so the Cluster views' slab pointer survives
//     NowState moves;
//   * cluster sizes — mirrored in a Fenwick tree over slots, making the
//     size-biased draw (randCl's limit law) O(log k) instead of O(k);
//   * node_home / the live-node registry — paged arrays keyed by the
//     sequential NodeId values;
//   * byzantine — a flat NodeSet (dense vector + paged positions).
// All membership mutations MUST flow through add_member / remove_member /
// move_node / swap_members so the Fenwick mirror, the Byzantine counts and
// the neighborhood populations stay consistent;
// Cluster objects are only handed out const. Two sanctioned exceptions:
//   * corrupt_home_for_test, for invariant tests that need to break the
//     bookkeeping on purpose;
//   * the parallel-commit primitives (apply_member_edits / commit_home /
//     commit_spilled_members / apply_size_deltas / adjust_placed_count),
//     the stage-1/stage-2 split of the sharded batch commit (DESIGN.md §7):
//     member-extent edits, their Byzantine counts and node_home writes
//     happen shard-parallel against disjoint slots, over-full slots are
//     spilled to a sequential stage-2 commit, and the Fenwick mirror, the
//     neighborhood populations and the placed-node count are reconciled
//     afterwards in one sequential merge. Their contracts spell out
//     exactly which shared structure each one may touch.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/member_slab.hpp"
#include "common/fenwick.hpp"
#include "common/node_set.hpp"
#include "common/paged_index.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "over/overlay.hpp"

namespace now::core {

class SnapshotReader;
class SnapshotWriter;

/// The Byzantine ground truth as NowState hands it out: NodeSet's reads only,
/// so no mark can bypass the per-cluster counts (NowState::set_byzantine).
class ByzantineSet {
 public:
  ByzantineSet& operator=(const ByzantineSet&) = delete;
  bool contains(NodeId id) const { return set_.contains(id); }
  NodeId at_index(std::size_t i) const { return set_.at_index(i); }
  std::size_t size() const { return set_.size(); }
  auto begin() const { return set_.begin(); }
  auto end() const { return set_.end(); }
  /// For readers that take a NodeSet (cluster::byzantine_count, discovery).
  operator const NodeSet&() const { return set_; }  // NOLINT

 private:
  friend class NowState;
  ByzantineSet() = default;
  NodeSet set_;
};

class NowState;

[[nodiscard]] inline std::uint64_t count_neighborhood_population(
    const NowState& state, ClusterId c);

class NowState {
 public:
  explicit NowState(const over::OverParams& over_params)
      : cluster_slot_(kNoSlot),
        slab_(std::make_unique<cluster::MemberSlab>()),
        node_home_(ClusterId::invalid()),
        overlay_(over_params) {}

  /// Ground truth of adversarial control (see the header comment).
  ByzantineSet byzantine;

  // ---------------------------------------------------------------- overlay

  /// The OVER overlay (vertices are the live ClusterIds), read-only: its
  /// edges change only through the three calls below, which keep the
  /// neighborhood populations exact.
  [[nodiscard]] const over::Overlay& overlay() const { return overlay_; }

  /// Overlay::initialize over `clusters`, then recounts every population.
  void initialize_overlay(const std::vector<ClusterId>& clusters, Rng& rng) {
    overlay_.initialize(clusters, rng);
    for (const ClusterId id : live_ids_) recount_neighborhood(id);
  }

  /// OVER's Add for `v` (a live cluster); recounts v and its new neighbors.
  void add_overlay_vertex(ClusterId v, const over::Overlay::Sampler& sampler,
                          Rng& rng) {
    for (const ClusterId u : overlay_.add_vertex(v, sampler, rng)) {
      recount_neighborhood(u);
    }
    recount_neighborhood(v);
  }

  /// OVER's Remove for `v`; recounts every survivor whose adjacency
  /// changed. v's own population is dropped with its slot.
  void remove_overlay_vertex(ClusterId v,
                             const over::Overlay::Sampler& sampler,
                             Rng& rng) {
    for (const ClusterId u : overlay_.remove_vertex(v, sampler, rng)) {
      recount_neighborhood(u);
    }
  }

  /// Sum of the sizes of `id`'s overlay neighbors: the audience of a
  /// composition update. O(1), kept exact by every size and edge change.
  [[nodiscard]] std::uint64_t neighborhood_population(ClusterId id) const {
    return neighborhood_[slot_of(id)];
  }

  /// neighborhood_population by slot (the batch planners' addressing).
  [[nodiscard]] std::uint64_t neighborhood_population_at_slot(
      std::size_t slot) const {
    assert(slot < slots_.size() && slots_[slot].has_value());
    return neighborhood_[slot];
  }

  // ------------------------------------------------------------- identities

  [[nodiscard]] NodeId fresh_node_id() { return NodeId{next_node_id_++}; }

  // --------------------------------------------------------------- clusters

  /// Creates an empty cluster with a fresh id and returns the id.
  ClusterId create_cluster() {
    const ClusterId id{next_cluster_id_++};
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slab_->acquire_slot(slot);
      slots_[slot].emplace(id, *slab_, slot);
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slab_->acquire_slot(slot);
      slots_.emplace_back(std::in_place, id, *slab_, slot);
      live_pos_.push_back(0);
      byz_count_.push_back(0);
      neighborhood_.push_back(0);
      if (sizes_.size() < slots_.size()) {
        sizes_.resize(std::max<std::size_t>(16, 2 * slots_.size()));
      }
    }
    cluster_slot_.set(id.value(), slot);
    neighborhood_[slot] = 0;  // not in the overlay yet
    live_pos_[slot] = static_cast<std::uint32_t>(live_ids_.size());
    live_ids_.push_back(id);
    return id;
  }

  /// Removes an (empty) cluster. The members must have been moved out or
  /// removed first — destroying a populated cluster would silently strand
  /// node_home entries.
  void destroy_cluster(ClusterId id) {
    const std::uint32_t slot = slot_of(id);
    assert(slots_[slot]->size() == 0 && "destroying a populated cluster");
    assert(byz_count_[slot] == 0);
    const std::uint32_t at = live_pos_[slot];
    const ClusterId moved = live_ids_.back();
    live_ids_[at] = moved;
    live_pos_[slot_of(moved)] = at;
    live_ids_.pop_back();
    slab_->release_slot(slot);
    slots_[slot].reset();
    cluster_slot_.unset(id.value());
    free_slots_.push_back(slot);
  }

  [[nodiscard]] bool has_cluster(ClusterId id) const {
    return cluster_slot_.get(id.value()) != kNoSlot;
  }

  [[nodiscard]] const cluster::Cluster& cluster_at(ClusterId id) const {
    return *slots_[slot_of(id)];
  }

  /// Live cluster ids, densely packed. Deterministic but unspecified order
  /// (ids move on destroy); do not assume id order.
  [[nodiscard]] std::span<const ClusterId> cluster_ids() const {
    return live_ids_;
  }

  [[nodiscard]] std::size_t num_clusters() const { return live_ids_.size(); }
  [[nodiscard]] std::size_t num_nodes() const { return placed_count_; }

  /// Stable slot index of a live cluster — the sharded batch step's
  /// partition key (operations are grouped by home-cluster slot modulo the
  /// shard count, see DESIGN.md §7). Slots are reused after destroy, so the
  /// value is only meaningful while the cluster is alive.
  [[nodiscard]] std::size_t slot_index(ClusterId id) const {
    return slot_of(id);
  }

  /// The live cluster in `slot` — the inverse of slot_index.
  [[nodiscard]] const cluster::Cluster& cluster_at_slot(
      std::size_t slot) const {
    assert(slot < slots_.size() && slots_[slot].has_value());
    return *slots_[slot];
  }

  /// Byzantine members of cluster `id` (Lemma 1 / Theorem 3 bound it). O(1).
  [[nodiscard]] std::size_t byzantine_count(ClusterId id) const {
    return byz_count_[slot_of(id)];
  }

  /// p_C = byzantine_count / |C| (Section 4), 0 for an empty cluster. O(1).
  [[nodiscard]] double byzantine_fraction(ClusterId id) const {
    const std::size_t size = cluster_at(id).size();
    return size == 0 ? 0.0
                     : static_cast<double>(byzantine_count(id)) /
                           static_cast<double>(size);
  }

  /// The first cluster of cluster_ids() with the highest byzantine_fraction
  /// (ClusterId::invalid() when there is none): the adversaries' target.
  [[nodiscard]] ClusterId most_byzantine_cluster() const {
    ClusterId best = ClusterId::invalid();
    double best_fraction = -1.0;
    for (const ClusterId id : live_ids_) {
      const double fraction = byzantine_fraction(id);
      if (fraction > best_fraction) {
        best_fraction = fraction;
        best = id;
      }
    }
    return best;
  }

  /// The shared membership arena (read-only).
  [[nodiscard]] const cluster::MemberSlab& member_slab() const {
    return *slab_;
  }

  // ------------------------------------------------------------- membership

  /// Adds `node` to cluster `c` and records the home mapping.
  void add_member(ClusterId c, NodeId node) {
    const std::uint32_t slot = slot_of(c);
    slots_[slot]->add_member(node);
    node_home_.set(node.value(), c);
    sizes_.add(slot, 1);
    shift_neighborhoods(c, 1);
    if (byzantine.contains(node)) ++byz_count_[slot];
    ++placed_count_;
  }

  /// Removes `node` from cluster `c` and clears the home mapping.
  void remove_member(ClusterId c, NodeId node) {
    const std::uint32_t slot = slot_of(c);
    slots_[slot]->remove_member(node);
    node_home_.unset(node.value());
    sizes_.subtract(slot, 1);
    shift_neighborhoods(c, -1);
    if (byzantine.contains(node)) --byz_count_[slot];
    assert(placed_count_ > 0);
    --placed_count_;
  }

  /// Moves a node between clusters, keeping node_home consistent.
  void move_node(NodeId node, ClusterId from, ClusterId to) {
    assert(home_of(node) == from);
    const std::uint32_t from_slot = slot_of(from);
    const std::uint32_t to_slot = slot_of(to);
    slots_[from_slot]->remove_member(node);
    slots_[to_slot]->add_member(node);
    node_home_.set(node.value(), to);
    sizes_.subtract(from_slot, 1);
    sizes_.add(to_slot, 1);
    shift_neighborhoods(from, -1);
    shift_neighborhoods(to, 1);
    if (byzantine.contains(node)) {
      --byz_count_[from_slot];
      ++byz_count_[to_slot];
    }
  }

  /// One exchange swap: `x` (a member of `c`) and `y` (a member of
  /// `partner`) trade clusters. Each sorted extent gets one in-place
  /// replace (MemberSlab::replace_sorted), so no extent relocates and the
  /// slab is not checked for compaction. Sizes do not change, so the
  /// Fenwick mirror and the neighborhood populations are left alone; a
  /// Byzantine count moves only when exactly one endpoint is Byzantine.
  void swap_members(NodeId x, ClusterId c, NodeId y, ClusterId partner) {
    assert(c != partner);
    assert(home_of(x) == c && home_of(y) == partner);
    const std::uint32_t c_slot = slot_of(c);
    const std::uint32_t partner_slot = slot_of(partner);
    slab_->replace_sorted(c_slot, x, y);
    slab_->replace_sorted(partner_slot, y, x);
    node_home_.set(x.value(), partner);
    node_home_.set(y.value(), c);
    const bool x_byzantine = byzantine.contains(x);
    if (x_byzantine != byzantine.contains(y)) {
      if (x_byzantine) {
        --byz_count_[c_slot];
        ++byz_count_[partner_slot];
      } else {
        ++byz_count_[c_slot];
        --byz_count_[partner_slot];
      }
    }
  }

  /// Marks or unmarks `node` as Byzantine (NodeSet insert / erase order)
  /// and moves its home cluster's count with it, if it is placed. Returns
  /// false, changing nothing, when the node already had that mark.
  bool set_byzantine(NodeId node, bool mark) {
    NodeSet& set = byzantine.set_;
    if (!(mark ? set.insert(node) : set.erase(node))) return false;
    if (const ClusterId home = home_of(node); home.valid()) {
      std::uint32_t& count = byz_count_[slot_of(home)];
      count = mark ? count + 1 : count - 1;
    }
    return true;
  }

  /// Home cluster of `node`, or ClusterId::invalid() when the node is not
  /// currently placed in any cluster.
  [[nodiscard]] ClusterId home_of(NodeId node) const {
    return node_home_.get(node.value());
  }

  [[nodiscard]] bool is_placed(NodeId node) const {
    return home_of(node).valid();
  }

  /// Hints the cache that `node`'s home entry is about to be read — the
  /// batch partition and resolve sweeps issue this one op ahead so the
  /// paged-index line is in flight while the current op is processed.
  void prefetch_home(NodeId node) const { node_home_.prefetch(node.value()); }

  /// Deliberately mis-points a node's home entry without touching cluster
  /// membership — invariant tests use this to fabricate broken bookkeeping.
  void corrupt_home_for_test(NodeId node, ClusterId wrong) {
    node_home_.set(node.value(), wrong);
  }

  // ------------------------------------------------- parallel commit (§7)
  //
  // The sharded batch commit resolves membership moves sequentially
  // (commit_home / clear_home keep node_home current as it goes), then
  // stage 1 partitions the touched cluster slots into contiguous blocks and
  // lets each shard apply its clusters' member edits concurrently — writing
  // each slot's merged membership in place into its slab extent, or
  // spilling the slot when the merge outgrew the extent's cap (the spill
  // set depends only on canonical per-slot edits and extent caps, so it is
  // shard-independent). These primitives deliberately do NOT maintain the
  // Fenwick size mirror, the neighborhood populations or the placed-node
  // count — each shard accumulates
  // signed size deltas privately and stage 2 first re-homes the spilled
  // slots (commit_spilled_members, ascending slot order), then folds the
  // deltas back in sequentially. Between the resolve pass and the matching
  // apply_size_deltas/adjust_placed_count calls, the size-dependent
  // samplers (random_cluster_size_biased, num_nodes) and the member extents
  // are out of sync with node_home and must not be consulted.

  /// One ordered membership edit of a cluster slot: add (true) or remove
  /// (false) `node`. Per-slot edit sequences are built sequentially in
  /// canonical batch order, so the member extent's final layout is
  /// independent of how slots are distributed over shards.
  struct MemberEdit {
    NodeId node;
    bool add = false;
  };

  /// Reusable buffers of one stage-1 worker (capacities persist across
  /// apply_member_edits calls; contents are ignored on entry). `spills`
  /// collects the slots whose merged membership did not fit their extent —
  /// the caller commits them sequentially in stage 2 and clears the list.
  struct EditScratch {
    std::vector<NodeId> adds;
    std::vector<NodeId> removes;
    std::vector<NodeId> merge;
    std::vector<std::pair<std::size_t, std::vector<NodeId>>> spills;
  };

  /// Applies `edits` to the cluster in `slot` and returns the net size
  /// delta. The member extent is sorted, so the final content depends only
  /// on the net effect, not the edit order: the edits are netted (a node
  /// added and removed within the batch cancels) and merged directly inside
  /// the slot's extent via MemberSlab::try_apply_edits — one
  /// O(|members| + |edits|) in-place pass touching ONLY that slot's extent
  /// and its Byzantine count, recounted over the merged members (nothing
  /// writes a mark in stage 1; a wave edits every member anyway, so the
  /// recount reads fewer marks than the edits would), so the call is safe
  /// to run concurrently for distinct slots with per-worker scratch. When
  /// the merge outgrew the extent, the merged run is built in scratch and
  /// the slot parked on scratch.spills for the sequential stage-2 commit
  /// instead (the returned delta and the count already account for it).
  /// The Fenwick mirror and placed_count are intentionally left stale (see
  /// above).
  std::int64_t apply_member_edits(std::size_t slot,
                                  std::span<const MemberEdit> edits,
                                  EditScratch& scratch) {
    assert(slot < slots_.size() && slots_[slot].has_value());
    scratch.adds.clear();
    scratch.removes.clear();
    for (const MemberEdit& edit : edits) {
      (edit.add ? scratch.adds : scratch.removes).push_back(edit.node);
    }
    const std::int64_t delta =
        static_cast<std::int64_t>(scratch.adds.size()) -
        static_cast<std::int64_t>(scratch.removes.size());
    std::sort(scratch.adds.begin(), scratch.adds.end());
    std::sort(scratch.removes.begin(), scratch.removes.end());
    // Cancel add/remove pairs of the same node (sorted multiset
    // difference; per node the net count is -1, 0 or +1).
    std::size_t a = 0;
    std::size_t r = 0;
    std::size_t a_out = 0;
    std::size_t r_out = 0;
    while (a < scratch.adds.size() && r < scratch.removes.size()) {
      if (scratch.adds[a] == scratch.removes[r]) {
        ++a;
        ++r;
      } else if (scratch.adds[a] < scratch.removes[r]) {
        scratch.adds[a_out++] = scratch.adds[a++];
      } else {
        scratch.removes[r_out++] = scratch.removes[r++];
      }
    }
    while (a < scratch.adds.size()) scratch.adds[a_out++] = scratch.adds[a++];
    while (r < scratch.removes.size()) {
      scratch.removes[r_out++] = scratch.removes[r++];
    }
    scratch.adds.resize(a_out);
    scratch.removes.resize(r_out);
    std::span<const NodeId> merged;
    if (slab_->try_apply_edits(slot, scratch.removes, scratch.adds)) {
      merged = slab_->members(slot);
    } else {
      cluster::merge_sorted_edits(slots_[slot]->members(), scratch.removes,
                                  scratch.adds, scratch.merge);
      scratch.spills.emplace_back(slot, scratch.merge);
      merged = scratch.merge;
    }
    std::uint32_t count = 0;
    for (const NodeId node : merged) count += byzantine.contains(node);
    byz_count_[slot] = count;
    return delta;
  }

  /// Stage 2 (sequential): re-homes a stage-1 spilled slot into a fresh
  /// tail extent. Callers commit spills in ascending slot order so the tail
  /// allocation sequence — and hence the slab layout — is canonical. Must
  /// run before apply_size_deltas (which checks sizes against the extents).
  void commit_spilled_members(std::size_t slot,
                              std::span<const NodeId> members) {
    assert(slot < slots_.size() && slots_[slot].has_value());
    slab_->assign(slot, members);
  }

  /// Stage 2 (sequential): gives the slab a compaction opportunity at the
  /// batch boundary, so dead space from relocations is bounded even when a
  /// batch triggers no sequential slab mutation of its own.
  void maybe_compact_slab() { slab_->maybe_compact(); }

  /// Writes a node's home as the resolve decides its move — node_home
  /// doubles as the commit's within-batch home map, so no separate scratch
  /// structure (or deferred write pass) is needed.
  void commit_home(NodeId node, ClusterId home) {
    node_home_.set(node.value(), home);
  }

  /// Clears a departing node's home mapping (sequential resolve phase).
  void clear_home(NodeId node) { node_home_.unset(node.value()); }

  /// Stage 2: folds the per-shard signed size deltas into the Fenwick
  /// mirror and the neighbors' populations (slots must be live; a slot
  /// appears at most once per call since each slot is owned by exactly one
  /// shard). Both sums are order-independent.
  void apply_size_deltas(
      std::span<const std::pair<std::size_t, std::int64_t>> deltas) {
    for (const auto& [slot, delta] : deltas) {
      assert(slot < slots_.size() && slots_[slot].has_value());
      assert(static_cast<std::int64_t>(sizes_.value_at(slot)) + delta ==
             static_cast<std::int64_t>(slots_[slot]->size()));
      shift_neighborhoods(slots_[slot]->id(), delta);
    }
    sizes_.apply_deltas(deltas);
  }

  /// Stage 2: reconciles the placed-node count with the batch's net
  /// join/leave balance (swaps are size-neutral).
  void adjust_placed_count(std::int64_t delta) {
    assert(delta >= 0 ||
           placed_count_ >= static_cast<std::size_t>(-delta));
    placed_count_ = static_cast<std::size_t>(
        static_cast<std::int64_t>(placed_count_) + delta);
  }

  /// Number of slots in the cluster slot table (live or free) — the bound
  /// commit engines size their per-slot scratch arrays to.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  // ------------------------------------------------------ live-node registry

  /// Adds a node to the sampling index (on join / initialization).
  void register_node(NodeId node) {
    const bool inserted = live_.insert(node);
    assert(inserted && "node already registered");
    (void)inserted;
  }

  /// Removes a node from the sampling index (on leave).
  void unregister_node(NodeId node) {
    const bool erased = live_.erase(node);
    assert(erased && "node was not registered");
    (void)erased;
  }

  /// Live nodes, densely packed (swap-and-pop order, not id order).
  [[nodiscard]] std::span<const NodeId> live_nodes() const {
    return live_.items();
  }

  /// Uniformly random live node.
  [[nodiscard]] NodeId random_node(Rng& rng) const {
    assert(!live_.empty());
    return live_.at_index(rng.uniform(live_.size()));
  }

  /// `count` distinct live nodes drawn uniformly (Floyd's algorithm, O(count)
  /// expected). Requires count <= the number of live nodes. The shared
  /// victim picker of batched churn drivers and tests.
  [[nodiscard]] std::vector<NodeId> sample_distinct_nodes(
      Rng& rng, std::size_t count) const {
    assert(count <= live_.size());
    std::vector<NodeId> result;
    result.reserve(count);
    for (const std::size_t index : rng.sample_distinct(live_.size(), count)) {
      result.push_back(live_.at_index(index));
    }
    return result;
  }

  /// Uniformly random *honest* live node (rejection sampling; cheap while
  /// the honest fraction is bounded away from zero).
  [[nodiscard]] NodeId random_honest_node(Rng& rng) const {
    assert(live_.size() > byzantine.size());
    while (true) {
      const NodeId candidate = random_node(rng);
      if (!byzantine.contains(candidate)) return candidate;
    }
  }

  // ----------------------------------------------------------- sampling laws

  /// Uniformly random cluster (used for join contact points; any cluster of
  /// the overlay may be contacted). O(1).
  [[nodiscard]] ClusterId random_cluster_uniform(Rng& rng) const {
    assert(!live_ids_.empty());
    return live_ids_[rng.uniform(live_ids_.size())];
  }

  /// Cluster drawn with probability |C| / n — the biased CTRW's limit law.
  /// O(log k) via the Fenwick size mirror.
  [[nodiscard]] ClusterId random_cluster_size_biased(Rng& rng) const {
    assert(num_nodes() > 0 && sizes_.total() == num_nodes());
    const std::size_t slot = sizes_.find(rng.uniform(sizes_.total()));
    return slots_[slot]->id();
  }

  /// Total number of nodes that are Byzantine.
  [[nodiscard]] std::size_t byzantine_total() const {
    return byzantine.size();
  }

  /// Resident bytes of the deterministic state: slot table, live/free
  /// lists, both paged indices, the Fenwick mirror, the membership slab
  /// and the node registries. Capacities, not sizes — this is what the
  /// process holds, the quantity the bytes_per_node bench scalar tracks.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return slots_.capacity() * sizeof(slots_[0]) +
           live_pos_.capacity() * sizeof(std::uint32_t) +
           free_slots_.capacity() * sizeof(std::uint32_t) +
           live_ids_.capacity() * sizeof(ClusterId) +
           cluster_slot_.footprint_bytes() + sizes_.footprint_bytes() +
           slab_->footprint_bytes() + node_home_.footprint_bytes() +
           live_.footprint_bytes() + byzantine.set_.footprint_bytes() +
           (byz_count_.capacity() + neighborhood_.capacity()) *
               sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Snapshot serialization (core/snapshot.cpp): the slot table, the slab
  /// geometry (extents + tail — compaction triggers are a function of it),
  /// the free list and every dense order (live_ids_, live_, byzantine) are
  /// observable through sampling or slab positions, so they are written and
  /// reconstructed verbatim; the derived containers (cluster_slot_,
  /// node_home_, sizes_, live_pos_, placed_count_, byz_count_,
  /// neighborhood_) are rebuilt from them.
  friend void snapshot_save_state(const NowState& state,
                                  SnapshotWriter& writer);
  friend void snapshot_load_state(NowState& state, SnapshotReader& reader);
  void clear_byzantine() { byzantine.set_.clear(); }  // for snapshot load

  /// Adds `delta` to the population of every overlay neighbor of `id`,
  /// whose size just changed by `delta`. A cluster outside the overlay
  /// (initialize's clusters before wiring, a split's fresh half) has none.
  /// Populations are bounded by the live node count, which the slab's u32
  /// pool positions bound, so u32 arithmetic (wrapping on a transient
  /// negative delta) is exact.
  void shift_neighborhoods(ClusterId id, std::int64_t delta) {
    for (const graph::Vertex v :
         overlay_.graph().neighbors_if_present(id.value())) {
      neighborhood_[slot_of(ClusterId{v})] += static_cast<std::uint32_t>(delta);
    }
  }

  /// Sets `id`'s population from its adjacency (after an edge change).
  void recount_neighborhood(ClusterId id) {
    neighborhood_[slot_of(id)] =
        static_cast<std::uint32_t>(count_neighborhood_population(*this, id));
  }

  [[nodiscard]] std::uint32_t slot_of(ClusterId id) const {
    const std::uint32_t slot = cluster_slot_.get(id.value());
    // Keep the old ordered-map contract (at() threw) rather than turning a
    // stale id into an out-of-bounds slot read in release builds.
    if (slot == kNoSlot) throw std::out_of_range("cluster does not exist");
    return slot;
  }

  NodeId::value_type next_node_id_ = 0;
  ClusterId::value_type next_cluster_id_ = 0;

  // Slot table for clusters; sizes_ mirrors each slot's |C| for the biased
  // draw, byz_count_ holds its Byzantine-member count and neighborhood_ the
  // sum of its overlay neighbors' sizes. slots_, live_pos_, byz_count_ and
  // neighborhood_ are parallel (sizes_ over-allocates). The slab holds
  // every slot's member extent; it sits behind a unique_ptr so the Cluster
  // views' raw slab pointers survive NowState moves.
  std::vector<std::optional<cluster::Cluster>> slots_;
  std::vector<std::uint32_t> live_pos_;
  std::vector<std::uint32_t> byz_count_;
  std::vector<std::uint32_t> neighborhood_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<ClusterId> live_ids_;
  PagedIndex<std::uint32_t> cluster_slot_;
  FenwickTree sizes_;
  std::unique_ptr<cluster::MemberSlab> slab_;

  PagedIndex<ClusterId> node_home_;
  std::size_t placed_count_ = 0;

  NodeSet live_;

  over::Overlay overlay_;
};

/// Sum of the sizes of `c`'s overlay neighbors, recounted from the
/// adjacency in O(deg): the reference for NowState::neighborhood_population
/// (I5 and the tests compare the two). 0 for a cluster outside the overlay.
[[nodiscard]] inline std::uint64_t count_neighborhood_population(
    const NowState& state, ClusterId c) {
  std::uint64_t total = 0;
  for (const graph::Vertex v :
       state.overlay().graph().neighbors_if_present(c.value())) {
    total += state.cluster_at(ClusterId{v}).size();
  }
  return total;
}

}  // namespace now::core
