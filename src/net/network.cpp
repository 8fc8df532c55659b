#include "net/network.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <string>
#include <string_view>
#include <utility>

#include "obs/obs.hpp"

namespace now::net {

namespace {

/// Per-tag send/receive counters, interned once per process. Indexed by
/// the Tag value so the round loop does no string work.
struct TagCounters {
  std::array<obs::MetricId, kMaxTag + 1> send{};
  std::array<obs::MetricId, kMaxTag + 1> recv{};
  TagCounters() {
    static constexpr std::array<std::string_view, kMaxTag + 1> kNames = {
        "value",    "propose", "king",         "discovery",
        "commit",   "reveal",  "echo",         "app",
        "shard_digest", "shard_go", "shard_bye"};
    for (std::size_t t = 0; t <= kMaxTag; ++t) {
      send[t] = obs::counter_id("net.send." + std::string(kNames[t]));
      recv[t] = obs::counter_id("net.recv." + std::string(kNames[t]));
    }
  }
};

const TagCounters& tag_counters() {
  static TagCounters counters;
  return counters;
}

}  // namespace

void Outbox::send(NodeId to, Tag tag, Payload payload) {
  messages_.push_back(Message{self_, to, tag, std::move(payload)});
}

void Outbox::multicast(std::span<const NodeId> to, Tag tag,
                       const Payload& payload) {
  for (const NodeId dest : to) send(dest, tag, payload);
}

void RoundEngine::add_actor(NodeId id, std::unique_ptr<Actor> actor) {
  assert(actor != nullptr);
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), id,
      [](const Slot& slot, NodeId key) { return slot.id < key; });
  assert((it == slots_.end() || it->id != id) &&
         "actor id already registered");
  slots_.insert(it, Slot{id, std::move(actor), {}});
  transport_.open_endpoint(id);
}

bool RoundEngine::remove_actor(NodeId id) {
  transport_.close_endpoint(id);
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), id,
      [](const Slot& slot, NodeId key) { return slot.id < key; });
  if (it == slots_.end() || it->id != id) return false;
  slots_.erase(it);
  return true;
}

void RoundEngine::run_round() {
  obs::ScopedSpan round_span(obs::Cat::kNet, "net.round", nullptr, round_,
                             slots_.size());
  const bool count_tags = obs::Registry::enabled();
  // No rushing: every inbox polled this round was sealed by the previous
  // round's barrier; messages sent below become deliverable only after
  // this round's end_round.
  Outbox out{NodeId{}};
  std::swap(out.messages_, outbox_buf_);  // recycle the buffer
  for (Slot& slot : slots_) {
    transport_.poll(slot.id, slot.inbox);
    if (count_tags) {
      for (const Message& msg : slot.inbox) {
        obs::counter_add(
            tag_counters().recv[static_cast<std::size_t>(msg.tag)]);
      }
    }
    out.self_ = slot.id;
    slot.actor->on_round(round_, slot.inbox, out);
    for (Message& msg : out.messages_) {
      // Charged before the transport may drop it: sends to departed nodes
      // still cost the sender (reconfigurable channels).
      metrics_.add_messages(msg.cost_units());
      if (count_tags) {
        obs::counter_add(
            tag_counters().send[static_cast<std::size_t>(msg.tag)]);
      }
      transport_.send(std::move(msg));
    }
    out.messages_.clear();
  }
  std::swap(out.messages_, outbox_buf_);
  transport_.end_round(round_);
  metrics_.add_rounds(1);
  ++round_;
}

void RoundEngine::run_rounds(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) run_round();
}

}  // namespace now::net
