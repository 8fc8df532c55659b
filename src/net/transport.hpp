// Pluggable transport under the round engine (DESIGN.md §12).
//
// A Transport owns message delivery between named endpoints and the round
// barrier that gives the system its synchronous, no-rushing semantics:
// messages handed to send() during round r become pollable by their
// destination only after end_round(r) returns, and end_round is a barrier —
// for multi-process transports it blocks until every participating process
// has finished round r. The engine (net/network.hpp) charges metrics; the
// transport only moves bytes, so every implementation is cost-transparent.
//
// Implementations:
//   * InProcTransport   — in-memory mailboxes; bit-compatible refactor of
//                         the original SyncNetwork simulator.
//   * SocketTransport   — length-prefixed wire frames over local TCP, one
//                         process per shard (net/socket_transport.hpp).
//   * FaultyTransport   — deterministic seeded fault-injection decorator
//                         (net/faulty_transport.hpp).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "net/message.hpp"

namespace now::net {

/// Thrown on transport-level failures (peer process gone, protocol
/// violation on a socket, barrier round cap exceeded).
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers `id` as a deliverable endpoint owned by this process.
  virtual void open_endpoint(NodeId id) = 0;

  /// Deregisters (departure detector): in-flight and future messages to the
  /// endpoint vanish. Returns false if the id is unknown locally.
  virtual bool close_endpoint(NodeId id) = 0;

  /// Liveness query. For multi-process transports remote liveness converges
  /// with one round of lag (see DESIGN.md §12); protocols that branch on
  /// liveness must confine queries to locally owned endpoints.
  [[nodiscard]] virtual bool is_live(NodeId id) const = 0;

  /// Buffers one message for delivery after this round's barrier. Messages
  /// to closed/unknown endpoints are silently dropped (the sender was
  /// already charged — reconfigurable channels, Section 2).
  virtual void send(Message msg) = 0;

  /// Round barrier: makes round-`round` messages deliverable and, for
  /// multi-process transports, blocks until all processes passed round.
  virtual void end_round(std::size_t round) = 0;

  /// Moves the messages deliverable to `id` this round into `out`
  /// (replacing its contents; buffer capacity is recycled).
  virtual void poll(NodeId id, std::vector<Message>& out) = 0;

  /// First round this transport participates in (non-zero for processes
  /// admitted mid-run, e.g. a respawned shard). Engines start there.
  [[nodiscard]] virtual std::size_t join_round() const { return 0; }
};

/// In-memory single-process transport. Mailboxes live in one flat vector
/// sorted by endpoint id (the NodeSet pattern); pending/ready buffers are
/// swapped, not reallocated, so steady-state rounds allocate nothing.
class InProcTransport final : public Transport {
 public:
  void open_endpoint(NodeId id) override;
  bool close_endpoint(NodeId id) override;
  [[nodiscard]] bool is_live(NodeId id) const override;
  void send(Message msg) override;
  void end_round(std::size_t round) override;
  void poll(NodeId id, std::vector<Message>& out) override;

 private:
  struct Mailbox {
    NodeId id;
    std::vector<Message> pending;  // sent this round, delivered next
    std::vector<Message> ready;    // deliverable this round
  };

  [[nodiscard]] Mailbox* find(NodeId id);
  [[nodiscard]] const Mailbox* find(NodeId id) const;

  std::vector<Mailbox> mailboxes_;  // sorted by id
};

}  // namespace now::net
