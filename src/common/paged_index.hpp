// Sparse array keyed by sequentially allocated 64-bit ids.
//
// NodeId / ClusterId values are handed out by incrementing counters and never
// reused, so a direct array would be ideal — except that long-lived
// deployments allocate ids far past the number of *live* entities. PagedIndex
// allocates fixed-size pages on demand: dense id ranges cost one array, holes
// cost nothing, and every access is O(1) (shift + mask + load), unlike the
// O(log n) ordered maps it replaces on the join/leave hot path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace now {

template <typename T>
class PagedIndex {
 public:
  /// `empty` is returned for keys that were never set (and stored in the
  /// unset slots of allocated pages).
  explicit PagedIndex(T empty = T{}) : empty_(empty) {}

  PagedIndex(const PagedIndex& other) : empty_(other.empty_) {
    pages_.reserve(other.pages_.size());
    for (const auto& page : other.pages_) {
      pages_.push_back(page ? std::make_unique<Page>(*page) : nullptr);
    }
  }
  PagedIndex& operator=(const PagedIndex& other) {
    if (this != &other) *this = PagedIndex(other);
    return *this;
  }
  PagedIndex(PagedIndex&&) noexcept = default;
  PagedIndex& operator=(PagedIndex&&) noexcept = default;
  ~PagedIndex() = default;

  /// Value at `key`, or the empty sentinel when unset. Never allocates.
  [[nodiscard]] T get(std::uint64_t key) const {
    const std::size_t page = page_of(key);
    if (page >= pages_.size() || pages_[page] == nullptr) return empty_;
    return (*pages_[page])[slot_of(key)];
  }

  /// True iff `key` holds a non-sentinel value.
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return get(key) != empty_;
  }

  void set(std::uint64_t key, T value) {
    const std::size_t page = page_of(key);
    if (page >= pages_.size()) pages_.resize(page + 1);
    if (pages_[page] == nullptr) {
      pages_[page] = std::make_unique<Page>();
      pages_[page]->fill(empty_);
    }
    (*pages_[page])[slot_of(key)] = value;
  }

  /// Resets `key` to the empty sentinel. Never allocates.
  void unset(std::uint64_t key) {
    const std::size_t page = page_of(key);
    if (page >= pages_.size() || pages_[page] == nullptr) return;
    (*pages_[page])[slot_of(key)] = empty_;
  }

  void clear() { pages_.clear(); }

  /// Requests the cache line holding `key`'s entry (no-op for unset
  /// pages). Batch sweeps issue this one key ahead so the load overlaps
  /// the current element's work.
  void prefetch(std::uint64_t key) const {
    const std::size_t page = page_of(key);
    if (page >= pages_.size() || pages_[page] == nullptr) return;
    __builtin_prefetch(&(*pages_[page])[slot_of(key)]);
  }

  /// Resident bytes: the page-pointer vector plus every allocated page.
  [[nodiscard]] std::size_t footprint_bytes() const {
    std::size_t bytes = pages_.capacity() * sizeof(pages_[0]);
    for (const auto& page : pages_) {
      if (page != nullptr) bytes += sizeof(Page);
    }
    return bytes;
  }

 private:
  static constexpr std::size_t kPageBits = 10;  // 1024 entries per page
  static constexpr std::size_t kPageSize = std::size_t{1} << kPageBits;
  using Page = std::array<T, kPageSize>;

  static constexpr std::size_t page_of(std::uint64_t key) {
    return static_cast<std::size_t>(key >> kPageBits);
  }
  static constexpr std::size_t slot_of(std::uint64_t key) {
    return static_cast<std::size_t>(key & (kPageSize - 1));
  }

  T empty_;
  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace now
