// Communication-cost accounting.
//
// The paper measures two quantities (Section 2, "Notations"):
//   * communication cost — the number of unit-size messages exchanged
//     ("we consider messages of identical size. Hence the communication cost
//      is proportional to the number of bits sent"), and
//   * round complexity — the number of successive communication rounds.
//
// Protocol code charges costs to a Metrics sink as it executes. Nested
// OpScope objects attribute the charges to named operations (join, leave,
// split, merge, randCl, exchange, ...) so benches can report per-operation
// cost distributions exactly as Figure 2 tabulates them.
//
// Operation labels are interned: the first time a label is seen it is mapped
// to a small dense OperationId; every subsequent scope open/close and sample
// append works on the integer id. Queries are id-keyed too — call sites
// intern (or find()) a label once and hold the id; the PR-1 string-keyed
// query shim is gone.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace now {

/// Cost of one (sub-)operation: unit messages sent and rounds consumed.
struct Cost {
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;

  Cost& operator+=(const Cost& other) {
    messages += other.messages;
    rounds += other.rounds;
    return *this;
  }
  friend Cost operator+(Cost a, const Cost& b) { return a += b; }
  friend bool operator==(const Cost&, const Cost&) = default;
};

/// Dense id of an interned operation label.
using OperationId = std::uint32_t;

/// Sentinel returned by Metrics::find for labels never interned. Every
/// id-keyed query accepts it and reports "no samples", mirroring how the
/// old string-keyed queries treated unknown labels.
inline constexpr OperationId kNoOperation = 0xFFFFFFFFu;

/// Accumulates protocol costs, globally and per named operation.
///
/// Rounds compose differently from messages: sub-protocols that run
/// sequentially add their rounds, sub-protocols that run in parallel in the
/// same rounds must not double-count. Protocol code expresses this by calling
/// add_messages for every unit message but add_rounds only on the sequential
/// critical path.
class Metrics {
 public:
  /// Charge `count` unit messages to the enclosing operation (if any) and to
  /// the global totals.
  void add_messages(std::uint64_t count);

  /// Charge `count` communication rounds on the critical path.
  void add_rounds(std::uint64_t count);

  [[nodiscard]] const Cost& total() const { return total_; }

  /// Interns `label`, returning its dense id (stable for the Metrics
  /// lifetime, including across reset()). O(1) amortized; one hash of the
  /// label on the first call per distinct string.
  OperationId intern(std::string_view label);

  /// Id of `label` if it was ever interned, else kNoOperation. The const
  /// counterpart of intern() for pure readers.
  [[nodiscard]] OperationId find(std::string_view label) const;

  /// Sum of costs of all completed operations with this id.
  [[nodiscard]] Cost operation_total(OperationId id) const;
  /// Costs of each completed operation with this id, in completion order.
  /// The span is invalidated by the next completed scope, merge or reset.
  [[nodiscard]] std::span<const Cost> operation_samples(OperationId id) const;
  /// Number of completed operations with this id.
  [[nodiscard]] std::size_t operation_count(OperationId id) const;
  /// Labels with at least one completed operation, sorted.
  [[nodiscard]] std::vector<std::string> labels() const;

  /// Folds another Metrics instance into this one: `other`'s total is
  /// charged through add_messages/add_rounds (so it propagates into any
  /// OpScope currently open on *this*) and its completed per-operation
  /// samples are appended under the same labels. Used by the sharded batch
  /// step, where each shard accumulates into a private Metrics off-thread
  /// and the results are merged back on commit. `other` must have no
  /// in-flight scopes.
  void merge(const Metrics& other);

  void reset();

 private:
  friend class OpScope;

  struct Frame {
    OperationId op;
    Cost cost;
  };

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  Cost total_;
  std::vector<Frame> stack_;
  std::unordered_map<std::string, OperationId, StringHash, std::equal_to<>>
      id_by_label_;
  std::vector<std::string> label_by_id_;
  std::vector<std::vector<Cost>> completed_;  // indexed by OperationId
};

/// RAII scope attributing all costs charged during its lifetime to `label`.
/// Scopes nest; a nested scope's cost is *also* charged to its ancestors,
/// mirroring how e.g. a join's cost includes the randCl and exchange calls it
/// makes.
class OpScope {
 public:
  OpScope(Metrics& metrics, std::string_view label);
  ~OpScope();

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// Cost charged so far inside this scope.
  [[nodiscard]] const Cost& cost() const;

 private:
  Metrics& metrics_;
  std::size_t index_;
};

}  // namespace now
