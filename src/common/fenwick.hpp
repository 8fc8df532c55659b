// Fenwick (binary indexed) tree over unsigned counts.
//
// Backs NowState's size-biased cluster sampling: the tree holds one entry per
// cluster slot with the cluster's current size, so drawing a cluster with
// probability |C| / n is one uniform draw plus an O(log k) descend instead of
// the O(k) linear scan the ordered-map state needed. Point updates (a member
// joining/leaving a cluster) are O(log k).
//
// The sharded batch commit (DESIGN.md §7) accumulates per-shard signed
// deltas off-thread and folds them in afterwards through apply_deltas, which
// picks between point updates and one O(k) rebuild — the tree itself is
// never written concurrently.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace now {

class FenwickTree {
 public:
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Value currently stored at `index`.
  [[nodiscard]] std::uint64_t value_at(std::size_t index) const {
    assert(index < values_.size());
    return values_[index];
  }

  /// Grows to `n` entries (new entries are zero). Shrinking is not supported;
  /// callers reuse slots instead. O(n) rebuild, amortized away by doubling.
  void resize(std::size_t n) {
    assert(n >= values_.size());
    values_.resize(n, 0);
    rebuild();
  }

  void add(std::size_t index, std::uint64_t delta) {
    assert(index < values_.size());
    values_[index] += delta;
    total_ += delta;
    for (std::size_t i = index + 1; i <= values_.size(); i += i & (~i + 1)) {
      tree_[i] += delta;
    }
  }

  void subtract(std::size_t index, std::uint64_t delta) {
    assert(index < values_.size() && values_[index] >= delta);
    values_[index] -= delta;
    total_ -= delta;
    for (std::size_t i = index + 1; i <= values_.size(); i += i & (~i + 1)) {
      tree_[i] -= delta;
    }
  }

  /// Folds a batch of signed point deltas (distinct or repeated indices; a
  /// net-negative delta must not underflow its entry). Small batches take
  /// the O(log k) point-update path; once the batch is large enough that
  /// point updates would cost more than rebuilding, the whole prefix-sum
  /// tree is rebuilt in one O(k) pass — the merge step of the sharded batch
  /// commit, where every shard's delta array lands here at once. Both
  /// branches leave the identical tree.
  void apply_deltas(
      std::span<const std::pair<std::size_t, std::int64_t>> deltas) {
    const std::size_t logk =
        std::bit_width(values_.size() | std::size_t{1});
    if (deltas.size() * logk < values_.size()) {
      for (const auto& [index, delta] : deltas) {
        if (delta >= 0) {
          add(index, static_cast<std::uint64_t>(delta));
        } else {
          subtract(index, static_cast<std::uint64_t>(-delta));
        }
      }
      return;
    }
    for (const auto& [index, delta] : deltas) {
      assert(index < values_.size());
      assert(delta >= 0 ||
             values_[index] >= static_cast<std::uint64_t>(-delta));
      values_[index] += static_cast<std::uint64_t>(delta);  // wraps as signed
    }
    rebuild();
  }

  /// Smallest index i whose values [0, i] sum to more than target; requires
  /// target < total(). This maps a uniform draw in [0, total) to an index
  /// with probability proportional to its value.
  [[nodiscard]] std::size_t find(std::uint64_t target) const {
    assert(target < total_);
    std::size_t pos = 0;
    std::uint64_t remaining = target;
    for (std::size_t step = std::bit_floor(values_.size()); step > 0;
         step >>= 1) {
      const std::size_t next = pos + step;
      if (next <= values_.size() && tree_[next] <= remaining) {
        remaining -= tree_[next];
        pos = next;
      }
    }
    assert(pos < values_.size());
    return pos;
  }

  /// Resident bytes: value mirror and tree.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return (values_.capacity() + tree_.capacity()) * sizeof(std::uint64_t);
  }

 private:
  void rebuild() {
    tree_.assign(values_.size() + 1, 0);
    total_ = 0;
    for (std::size_t i = 0; i < values_.size(); ++i) {
      total_ += values_[i];
      tree_[i + 1] += values_[i];
      const std::size_t parent = (i + 1) + ((i + 1) & (~(i + 1) + 1));
      if (parent <= values_.size()) tree_[parent] += tree_[i + 1];
    }
  }

  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> tree_;  // 1-indexed
  std::uint64_t total_ = 0;
};

}  // namespace now
