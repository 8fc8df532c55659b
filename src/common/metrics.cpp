#include "common/metrics.hpp"

#include <algorithm>
#include <cassert>

namespace now {

void Metrics::add_messages(std::uint64_t count) {
  total_.messages += count;
  for (auto& frame : stack_) frame.cost.messages += count;
}

void Metrics::add_rounds(std::uint64_t count) {
  total_.rounds += count;
  for (auto& frame : stack_) frame.cost.rounds += count;
}

OperationId Metrics::intern(std::string_view label) {
  if (const auto it = id_by_label_.find(label); it != id_by_label_.end()) {
    return it->second;
  }
  const auto id = static_cast<OperationId>(label_by_id_.size());
  label_by_id_.emplace_back(label);
  completed_.emplace_back();
  id_by_label_.emplace(label_by_id_.back(), id);
  return id;
}

OperationId Metrics::find(std::string_view label) const {
  const auto it = id_by_label_.find(label);
  return it == id_by_label_.end() ? kNoOperation : it->second;
}

Cost Metrics::operation_total(OperationId id) const {
  Cost sum;
  for (const auto& cost : operation_samples(id)) sum += cost;
  return sum;
}

std::span<const Cost> Metrics::operation_samples(OperationId id) const {
  if (id >= completed_.size()) return {};
  return completed_[id];
}

std::vector<std::string> Metrics::labels() const {
  std::vector<std::string> result;
  for (OperationId id = 0; id < completed_.size(); ++id) {
    if (!completed_[id].empty()) result.push_back(label_by_id_[id]);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::size_t Metrics::operation_count(OperationId id) const {
  return operation_samples(id).size();
}

void Metrics::merge(const Metrics& other) {
  assert(other.stack_.empty() && "merge() of a Metrics with open scopes");
  add_messages(other.total_.messages);
  add_rounds(other.total_.rounds);
  for (OperationId id = 0; id < other.completed_.size(); ++id) {
    const auto& samples = other.completed_[id];
    if (samples.empty()) continue;
    const OperationId mine = intern(other.label_by_id_[id]);
    completed_[mine].insert(completed_[mine].end(), samples.begin(),
                            samples.end());
  }
}

void Metrics::reset() {
  assert(stack_.empty() && "reset() while operations are in flight");
  total_ = Cost{};
  // Interned ids survive reset (OperationId handles stay valid); only the
  // recorded samples are dropped.
  for (auto& samples : completed_) samples.clear();
}

OpScope::OpScope(Metrics& metrics, std::string_view label)
    : metrics_(metrics), index_(metrics.stack_.size()) {
  metrics_.stack_.push_back({metrics_.intern(label), Cost{}});
}

OpScope::~OpScope() {
  assert(metrics_.stack_.size() == index_ + 1 &&
         "OpScopes must be destroyed in LIFO order");
  const Metrics::Frame frame = metrics_.stack_.back();
  metrics_.stack_.pop_back();
  metrics_.completed_[frame.op].push_back(frame.cost);
}

const Cost& OpScope::cost() const { return metrics_.stack_[index_].cost; }

}  // namespace now
