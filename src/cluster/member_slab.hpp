// Flat extent-based membership arena (DESIGN.md §9).
//
// All cluster member lists live in ONE contiguous NodeId pool, partitioned
// into per-slot extents [first, first + size) with amortized headroom
// (cap >= size). Cluster becomes a thin view over its extent, so the batch
// commit's stage-1 workers stream sequential memory over contiguous slot
// blocks instead of chasing one heap allocation per cluster, and a snapshot
// of the whole membership is one bulk write of the pool plus the extent
// table.
//
// Layout determinism contract: the extent table (and therefore every slab
// position) must be bit-identical across shard counts. That holds
// because the pool is only ever reshaped at sequential points:
//   * insert_sorted / erase_sorted / replace_sorted / assign — sequential
//     join()/leave() and the stage-2 split/merge/spill paths;
//   * compact() — triggered by a fixed threshold on (tail_, live_), both of
//     which evolve through the same canonical mutation sequence everywhere
//     (try_apply_edits adjusts live_ with a relaxed atomic add, an
//     order-independent sum over per-slot deltas that are themselves
//     shard-independent).
// The only parallel mutator is try_apply_edits, which writes strictly
// inside its slot's pre-existing extent (disjoint byte ranges across
// slots) and never moves anything.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"

namespace now::cluster {

class MemberSlab {
 public:
  /// One slot's range of the pool: members occupy
  /// [first, first + size), the slot owns [first, first + cap).
  /// 32-bit fields keep the extent table half the size a size_t layout
  /// would be — it is read on every members() access, so it competes for
  /// L1 with the pool itself. Pool positions are bounded by ~2x the live
  /// membership (compaction trigger), far below 2^32 for any simulated
  /// deployment; relocate() asserts the bound anyway.
  struct Extent {
    std::uint32_t first = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  /// Headroom policy: ~25% slack plus a constant, so steady churn edits the
  /// extent in place and relocations stay O(amortized) under growth.
  [[nodiscard]] static constexpr std::uint64_t cap_for(std::uint64_t size) {
    return size + size / 4 + 8;
  }

  /// Compaction trigger: more than half of the allocated prefix is dead
  /// space (beyond a fixed slack that keeps small deployments from
  /// compacting constantly). A pure function of (tail_, live_), hence
  /// layout-deterministic — see the header comment.
  static constexpr std::uint64_t kCompactSlack = 1024;

  // ----------------------------------------------------------------- slots

  /// Registers `slot` with an empty extent (no pool space until members
  /// arrive). Grows the extent table as needed.
  void acquire_slot(std::size_t slot) {
    if (slot >= extents_.size()) extents_.resize(slot + 1);
    assert(extents_[slot].size == 0 && "acquiring a populated slot");
    extents_[slot] = Extent{};
  }

  /// Releases an (empty) slot; its dead cap is reclaimed at the next
  /// compaction.
  void release_slot(std::size_t slot) {
    assert(slot < extents_.size());
    assert(extents_[slot].size == 0 && "releasing a populated slot");
    extents_[slot] = Extent{};
  }

  [[nodiscard]] std::span<const NodeId> members(std::size_t slot) const {
    const Extent& e = extents_[slot];
    return {pool_.data() + e.first, static_cast<std::size_t>(e.size)};
  }

  [[nodiscard]] std::size_t size(std::size_t slot) const {
    return static_cast<std::size_t>(extents_[slot].size);
  }

  [[nodiscard]] const Extent& extent(std::size_t slot) const {
    return extents_[slot];
  }

  [[nodiscard]] std::size_t slot_count() const { return extents_.size(); }

  // ----------------------------------------- sequential mutators (see top)

  void insert_sorted(std::size_t slot, NodeId node) {
    if (extents_[slot].size == extents_[slot].cap) {
      relocate(slot, cap_for(extents_[slot].size + 1));
    }
    Extent& e = extents_[slot];
    NodeId* base = pool_.data() + e.first;
    NodeId* last = base + e.size;
    NodeId* it = std::lower_bound(base, last, node);
    assert((it == last || *it != node) && "member already present");
    std::copy_backward(it, last, last + 1);
    *it = node;
    ++e.size;
    live_.fetch_add(1, std::memory_order_relaxed);
    maybe_compact();
  }

  void erase_sorted(std::size_t slot, NodeId node) {
    Extent& e = extents_[slot];
    NodeId* base = pool_.data() + e.first;
    NodeId* last = base + e.size;
    NodeId* it = std::lower_bound(base, last, node);
    assert(it != last && *it == node && "member not present");
    (void)std::copy(it + 1, last, it);
    --e.size;
    live_.fetch_sub(1, std::memory_order_relaxed);
    maybe_compact();
  }

  /// Replaces member `old_node` with `new_node` (absent) in place: one
  /// shift of the members between old_node's position and new_node's
  /// insertion point. The size does not change, so the extent never
  /// relocates, live_ does not move and no compaction check runs.
  void replace_sorted(std::size_t slot, NodeId old_node, NodeId new_node) {
    const Extent& e = extents_[slot];
    NodeId* const base = pool_.data() + e.first;
    NodeId* const last = base + e.size;
    NodeId* const at = std::lower_bound(base, last, old_node);
    assert(at != last && *at == old_node && "member not present");
    if (old_node < new_node) {
      NodeId* const ins = std::lower_bound(at + 1, last, new_node);
      assert((ins == last || *ins != new_node) && "member already present");
      std::copy(at + 1, ins, at);
      *(ins - 1) = new_node;
    } else {
      NodeId* const ins = std::lower_bound(base, at, new_node);
      assert((ins == at || *ins != new_node) && "member already present");
      std::copy_backward(ins, at, at + 1);
      *ins = new_node;
    }
  }

  /// Replaces the slot's members with `members` (sorted), relocating the
  /// extent to a fresh tail range when the current cap is too small.
  void assign(std::size_t slot, std::span<const NodeId> members) {
    if (members.size() > extents_[slot].cap) {
      relocate(slot, cap_for(members.size()));
    }
    Extent& e = extents_[slot];
    std::copy(members.begin(), members.end(),
              pool_.begin() + static_cast<std::ptrdiff_t>(e.first));
    live_.fetch_add(members.size() - e.size, std::memory_order_relaxed);
    e.size = static_cast<std::uint32_t>(members.size());
    maybe_compact();
  }

  // ------------------------------------------------- parallel-safe mutators

  /// In-place merge of sorted edits for the stage-1 workers: drops
  /// `removals` and splices in `additions` directly inside the slot's
  /// extent, no scratch copy — a forward compaction pass for the removals
  /// (write index trails the read index) followed by a backward merge for
  /// the additions (write index leads the read index), producing exactly
  /// merge_sorted_edits' output. It never relocates and never touches
  /// tail_ or another slot's range, so distinct slots write disjoint pool
  /// bytes. live_ is adjusted with a relaxed atomic add: the total is an
  /// order-independent sum, so it stays deterministic. Returns false
  /// untouched when the merged size outgrows the cap (the caller spills
  /// the slot to the sequential stage-2 commit), and throws the same
  /// std::invalid_argument as merge_sorted_edits on a stale removal list
  /// BEFORE mutating anything.
  [[nodiscard]] bool try_apply_edits(std::size_t slot,
                                     std::span<const NodeId> removals,
                                     std::span<const NodeId> additions) {
    Extent& e = extents_[slot];
    if (removals.size() > e.size) {
      throw std::invalid_argument(
          "merge_sorted_edits: more removals than members");
    }
    const std::size_t merged =
        e.size - removals.size() + additions.size();
    if (merged > e.cap) return false;
    NodeId* const base = pool_.data() + e.first;
    // Validate before the first write: members are unique and sorted, so a
    // sorted removal multiset is consumable iff every entry is present and
    // no two entries repeat (removals are tiny — a binary search each).
    for (std::size_t i = 0; i < removals.size(); ++i) {
      if ((i > 0 && removals[i] == removals[i - 1]) ||
          !std::binary_search(base, base + e.size, removals[i])) {
        throw std::invalid_argument(
            "merge_sorted_edits: removal of a non-member");
      }
    }
    // Forward compaction: shift the survivors left over the removals.
    std::size_t kept = e.size;
    if (!removals.empty()) {
      NodeId* write = std::lower_bound(base, base + e.size, removals.front());
      std::size_t rem = 0;
      for (NodeId* read = write; read != base + e.size; ++read) {
        if (rem < removals.size() && *read == removals[rem]) {
          ++rem;
          continue;
        }
        *write++ = *read;
      }
      kept = static_cast<std::size_t>(write - base);
    }
    // Backward merge of the additions: write >= read throughout (the run
    // only grows), and a tie takes the addition first so it lands AFTER the
    // equal member — the mirror of merge_sorted_edits' `*addition < m`.
    std::size_t write = merged;
    std::size_t read = kept;
    std::size_t add = additions.size();
    while (add > 0) {
      if (read > 0 && additions[add - 1] < base[read - 1]) {
        base[--write] = base[--read];
      } else {
        base[--write] = additions[--add];
      }
    }
    live_.fetch_add(merged - e.size, std::memory_order_relaxed);
    e.size = static_cast<std::uint32_t>(merged);
    return true;
  }

  // ------------------------------------------------------------ compaction

  [[nodiscard]] std::uint64_t tail() const { return tail_; }
  [[nodiscard]] std::uint64_t live() const {
    return live_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t compaction_count() const { return compactions_; }

  /// Resident bytes: the member pool plus the extent table (capacities).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return pool_.capacity() * sizeof(NodeId) +
           extents_.capacity() * sizeof(Extent);
  }

  [[nodiscard]] bool compaction_due() const {
    return tail_ > 2 * live() + kCompactSlack;
  }

  void maybe_compact() {
    if (compaction_due()) compact();
  }

  /// Repacks every populated extent in ascending slot order with fresh
  /// cap_for headroom; empty extents reset to zero. Gap bytes between the
  /// old extents are dead (no read ever leaves [first, first + size)), so
  /// compaction is unobservable except through the extent table itself —
  /// which is layout-deterministic, see the header comment.
  void compact() {
    std::uint64_t packed = 0;
    for (const Extent& e : extents_) {
      if (e.size > 0) packed += cap_for(e.size);
    }
    std::vector<NodeId> fresh(static_cast<std::size_t>(packed));
    std::uint64_t offset = 0;
    for (Extent& e : extents_) {
      if (e.size == 0) {
        e = Extent{};
        continue;
      }
      std::copy(pool_.begin() + static_cast<std::ptrdiff_t>(e.first),
                pool_.begin() + static_cast<std::ptrdiff_t>(e.first + e.size),
                fresh.begin() + static_cast<std::ptrdiff_t>(offset));
      e.first = static_cast<std::uint32_t>(offset);
      e.cap = static_cast<std::uint32_t>(cap_for(e.size));
      offset += e.cap;
    }
    pool_ = std::move(fresh);
    tail_ = offset;
    ++compactions_;
  }

  // ------------------------------------------------------ snapshot restore

  /// Wipes the slab and sizes the pool for exactly `tail` positions over
  /// `slot_count` extents. Gap positions are zero-filled — gap content is
  /// unobservable, only the extent geometry (restored verbatim next) feeds
  /// back into behavior via compaction triggers and slab positions.
  void restore_reset(std::size_t slot_count, std::uint64_t tail) {
    assert(tail <= std::numeric_limits<std::uint32_t>::max() &&
           "caller validates the tail fits u32 pool positions");
    extents_.assign(slot_count, Extent{});
    pool_.assign(static_cast<std::size_t>(tail), NodeId{});
    tail_ = tail;
    live_.store(0, std::memory_order_relaxed);
  }

  /// Restores one live extent verbatim; the caller has validated that
  /// [first, first + cap) is in bounds and disjoint from other extents.
  void restore_extent(std::size_t slot, std::uint64_t first_pos,
                      std::uint64_t cap, std::span<const NodeId> members) {
    assert(slot < extents_.size());
    assert(members.size() <= cap && first_pos + cap <= tail_);
    Extent& e = extents_[slot];
    e.first = static_cast<std::uint32_t>(first_pos);
    e.cap = static_cast<std::uint32_t>(cap);
    e.size = static_cast<std::uint32_t>(members.size());
    std::copy(members.begin(), members.end(),
              pool_.begin() + static_cast<std::ptrdiff_t>(first_pos));
    live_.fetch_add(members.size(), std::memory_order_relaxed);
  }

 private:
  /// Moves the slot's members to a fresh extent of `new_cap` at the tail.
  /// The old range becomes dead space until the next compaction.
  void relocate(std::size_t slot, std::uint64_t new_cap) {
    const std::uint64_t new_first = tail_;
    assert(new_first + new_cap <= std::numeric_limits<std::uint32_t>::max() &&
           "pool position overflows the u32 extent fields");
    if (pool_.size() < new_first + new_cap) {
      pool_.resize(std::max<std::size_t>(
          static_cast<std::size_t>(new_first + new_cap), 2 * pool_.size()));
    }
    Extent& e = extents_[slot];
    // Old extent ends at or below tail_ == new_first, so the ranges are
    // disjoint.
    std::copy(pool_.begin() + static_cast<std::ptrdiff_t>(e.first),
              pool_.begin() + static_cast<std::ptrdiff_t>(e.first + e.size),
              pool_.begin() + static_cast<std::ptrdiff_t>(new_first));
    e.first = static_cast<std::uint32_t>(new_first);
    e.cap = static_cast<std::uint32_t>(new_cap);
    tail_ = new_first + new_cap;
  }

  std::vector<NodeId> pool_;
  std::vector<Extent> extents_;
  std::uint64_t tail_ = 0;  // allocated prefix of pool_
  std::atomic<std::uint64_t> live_{0};  // sum of extent sizes
  std::uint64_t compactions_ = 0;
};

}  // namespace now::cluster
