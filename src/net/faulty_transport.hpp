// Deterministic fault-injection decorator over any Transport.
//
// Wraps an inner transport and, at each round barrier, subjects the round's
// staged messages to seeded faults: drops, duplicates, bounded delays,
// per-pair reorder, and windowed partitions. Every decision is drawn from
// Rng::derive_stream keyed ONLY by (seed, sender, receiver, per-pair
// sequence number or round) — never by process layout — so a single-process
// deployment and a sharded multi-process deployment of the same protocol
// make bit-identical fault decisions (each process decorates its own
// transport and owns disjoint senders, hence disjoint pair streams).
//
// Delivery order is normalized to ascending (from, to) with per-pair FIFO
// (delayed-then-fresh), which the socket hub's stable-sort-by-sender merge
// maps to the same final inbox order as the in-process path — the
// fault-injected trajectory itself is deployment-independent.
//
// Faults apply to protocol messages only; the socket transport's barrier
// and handshake frames live below this decorator and are never faulted.
// Every injected fault is recorded in an in-memory log (events()), so
// tests can compare two deployments' fault decisions.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "net/transport.hpp"

namespace now::net {

/// Fault probabilities and shapes. All probabilities are per-message (per
/// window for partition) in [0, 1]; zero means the fault is off.
struct FaultPlan {
  double drop = 0.0;       // message vanishes
  double duplicate = 0.0;  // message delivered twice
  double delay = 0.0;      // message arrives 1..max_delay_rounds late
  std::size_t max_delay_rounds = 2;
  double reorder = 0.0;    // a pair's fresh messages this round reverse
  double partition = 0.0;  // pair blacked out for a whole window
  std::size_t partition_rounds = 8;  // partition window length in rounds

  [[nodiscard]] bool any() const {
    return drop > 0 || duplicate > 0 || delay > 0 || reorder > 0 ||
           partition > 0;
  }
};

/// One injected fault, for offline inspection.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kDrop = 0,
    kDuplicate = 1,
    kDelay = 2,
    kReorder = 3,
    kPartition = 4,
  };
  Kind kind;
  std::size_t round;  // round the message was sent (reorder: the pair round)
  NodeId from;
  NodeId to;
  std::size_t until_round = 0;  // delay: delivery round; partition: window end
};

class FaultyTransport final : public Transport {
 public:
  /// Decorates `inner` (not owned; must outlive this object).
  FaultyTransport(Transport& inner, const FaultPlan& plan,
                  std::uint64_t seed);

  void open_endpoint(NodeId id) override;
  bool close_endpoint(NodeId id) override;
  [[nodiscard]] bool is_live(NodeId id) const override;
  void send(Message msg) override;
  void end_round(std::size_t round) override;
  void poll(NodeId id, std::vector<Message>& out) override;
  [[nodiscard]] std::size_t join_round() const override;

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }

 private:
  struct Delayed {
    std::size_t due_round;
    Message msg;
  };

  /// Appends to the fault log and mirrors the decision into the obs layer
  /// (per-kind counter + trace instant). Telemetry only observes the
  /// already-made decision — the fault streams never see it.
  void record(FaultEvent event);

  Transport& inner_;
  FaultPlan plan_;
  std::uint64_t seed_;
  std::vector<Message> staged_;       // this round's sends, in send order
  std::vector<Delayed> delayed_;      // in decision order (deterministic)
  std::vector<FaultEvent> events_;
  // Per-(sender, receiver) message sequence numbers: the substream index of
  // each message's fault draw, so decisions depend only on the pair's
  // message history, not on process layout.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> pair_seq_;
};

}  // namespace now::net
