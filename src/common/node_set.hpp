// Flat set of NodeIds with O(1) insert / erase / contains and O(1) uniform
// indexing.
//
// Replaces the ordered std::set<NodeId> that used to represent the Byzantine
// ground truth: membership tests sit inside every per-cluster Byzantine count
// update and every honest-node rejection sample, so they must be constant
// time.
// Layout: a dense vector of members (swap-and-pop on erase), a paged
// position index keyed by the node id, and one membership bit per id for
// contains() (8 KB per 64k ids: it stays cache-resident where the stage-1
// Byzantine recount probes it per member). Iteration order is the
// deterministic insertion/erase order of the dense vector, not id order.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/paged_index.hpp"
#include "common/types.hpp"

namespace now {

class NodeSet {
 public:
  using const_iterator = std::vector<NodeId>::const_iterator;

  NodeSet() : pos_(kAbsent) {}
  NodeSet(std::initializer_list<NodeId> ids) : NodeSet() {
    for (const NodeId id : ids) insert(id);
  }
  template <typename It>
  NodeSet(It first, It last) : NodeSet() {
    for (; first != last; ++first) insert(*first);
  }

  [[nodiscard]] bool contains(NodeId id) const {
    const std::uint64_t word = id.value() >> 6;
    return word < bits_.size() && ((bits_[word] >> (id.value() & 63)) & 1);
  }

  /// Inserts `id`; returns false if it was already present.
  bool insert(NodeId id) {
    if (contains(id)) return false;
    pos_.set(id.value(), static_cast<std::uint32_t>(dense_.size()));
    dense_.push_back(id);
    const std::uint64_t word = id.value() >> 6;
    if (word >= bits_.size()) bits_.resize(word + 1, 0);
    bits_[word] |= std::uint64_t{1} << (id.value() & 63);
    return true;
  }

  /// Erases `id`; returns false if it was absent.
  bool erase(NodeId id) {
    const std::uint32_t at = pos_.get(id.value());
    if (at == kAbsent) return false;
    const NodeId last = dense_.back();
    dense_[at] = last;
    pos_.set(last.value(), at);
    dense_.pop_back();
    pos_.unset(id.value());
    bits_[id.value() >> 6] &= ~(std::uint64_t{1} << (id.value() & 63));
    return true;
  }

  /// Member at dense position `index` (uniform sampling: draw the index).
  [[nodiscard]] NodeId at_index(std::size_t index) const {
    assert(index < dense_.size());
    return dense_[index];
  }

  [[nodiscard]] std::size_t size() const { return dense_.size(); }
  [[nodiscard]] bool empty() const { return dense_.empty(); }

  /// The members as a dense span (swap-and-pop order, not id order).
  [[nodiscard]] std::span<const NodeId> items() const { return dense_; }

  void clear() {
    dense_.clear();
    pos_.clear();
    bits_.clear();
  }

  [[nodiscard]] const_iterator begin() const { return dense_.begin(); }
  [[nodiscard]] const_iterator end() const { return dense_.end(); }

  /// Resident bytes: the dense member vector plus the paged position index.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return dense_.capacity() * sizeof(NodeId) + pos_.footprint_bytes() +
           bits_.capacity() * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  std::vector<NodeId> dense_;
  PagedIndex<std::uint32_t> pos_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace now
