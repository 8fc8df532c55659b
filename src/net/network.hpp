// Synchronous round-based engine over a pluggable Transport.
//
// Models the paper's system assumptions (Section 2): a synchronous network
// with discrete rounds, private reconfigurable channels, no rushing within a
// round (messages sent in round r are a function of state before r; this is
// what makes commit–reveal randNum unbiased, see DESIGN.md §5), and a
// departure detector (closing an endpoint makes subsequent sends to it
// vanish, and neighbors can query liveness).
//
// The engine hosts the actors of ONE process and charges all costs; the
// Transport (net/transport.hpp) moves the messages — in-memory, over local
// sockets between shard processes, or through a fault-injection decorator.
// Actor tables and inboxes are flat vectors sorted by id (the NodeSet
// pattern): steady-state rounds reuse every buffer and allocate nothing.
//
// Used at message level for committee-scale protocols (phase-king, randNum,
// discovery on small networks); larger experiments use the same protocol
// logic with bulk cost accounting, and tests assert the two agree.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/metrics.hpp"
#include "common/types.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"

namespace now::net {

/// Outbound-message collector handed to actors each round.
class Outbox {
 public:
  void send(NodeId to, Tag tag, Payload payload = {});

  /// Convenience: send the same message to every destination in `to`.
  void multicast(std::span<const NodeId> to, Tag tag,
                 const Payload& payload = {});

 private:
  friend class RoundEngine;
  explicit Outbox(NodeId self) : self_(self) {}
  NodeId self_;
  std::vector<Message> messages_;
};

/// A protocol participant. One virtual call per round: consume the inbox
/// (messages addressed to this actor, sent in the previous round) and emit
/// this round's messages.
class Actor {
 public:
  virtual ~Actor() = default;
  virtual void on_round(std::size_t round, std::span<const Message> inbox,
                        Outbox& out) = 0;
};

/// Drives the actors of one process in lockstep rounds over a Transport.
/// Bit-compatible with the historical SyncNetwork simulator when paired
/// with InProcTransport (actors run in ascending id order; every unit
/// message is charged before the transport may drop it; one round is
/// charged per run_round).
class RoundEngine {
 public:
  RoundEngine(Metrics& metrics, Transport& transport)
      : metrics_(metrics),
        transport_(transport),
        round_(transport.join_round()) {}

  /// Registers an actor under `id` and opens its transport endpoint. The id
  /// must not already be registered on this engine.
  void add_actor(NodeId id, std::unique_ptr<Actor> actor);

  /// Deregisters (crash / leave) and closes the endpoint. In-flight
  /// messages to it are dropped, as are future sends. Returns false if the
  /// id is unknown.
  bool remove_actor(NodeId id);

  /// Endpoint liveness as seen by the transport (spans processes for
  /// multi-process transports, with one round of lag — DESIGN.md §12).
  [[nodiscard]] bool is_live(NodeId id) const {
    return transport_.is_live(id);
  }
  [[nodiscard]] std::size_t round() const { return round_; }

  /// Executes one synchronous round: every actor sees messages sent to it
  /// in the previous round and produces messages delivered next round.
  /// Charges one round and all message units to the metrics sink, then
  /// passes the transport's round barrier.
  void run_round();

  /// Runs `count` rounds.
  void run_rounds(std::size_t count);

 private:
  struct Slot {
    NodeId id;
    std::unique_ptr<Actor> actor;
    std::vector<Message> inbox;  // recycled each round via Transport::poll
  };

  Metrics& metrics_;
  Transport& transport_;
  std::size_t round_;
  std::vector<Slot> slots_;  // sorted by id
  std::vector<Message> outbox_buf_;
};

}  // namespace now::net
