#include "net/faulty_transport.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "core/snapshot.hpp"
#include "obs/obs.hpp"

namespace now::net {

namespace {

// Domain-separation salts: partition windows and reorder flips draw from
// streams unrelated to the per-message fault stream.
constexpr std::uint64_t kPartitionSalt = 0x5041525449544E31ULL;
constexpr std::uint64_t kReorderSalt = 0x52454F5244455231ULL;

/// Stable 64-bit key for a (sender, receiver) channel.
[[nodiscard]] std::uint64_t pair_stream(std::uint64_t from, std::uint64_t to) {
  std::uint8_t bytes[16];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(from >> (8 * i));
    bytes[8 + i] = static_cast<std::uint8_t>(to >> (8 * i));
  }
  return core::fnv1a64(bytes, sizeof bytes);
}

}  // namespace

FaultyTransport::FaultyTransport(Transport& inner, const FaultPlan& plan,
                                 std::uint64_t seed)
    : inner_(inner), plan_(plan), seed_(seed) {}

void FaultyTransport::open_endpoint(NodeId id) { inner_.open_endpoint(id); }

bool FaultyTransport::close_endpoint(NodeId id) {
  return inner_.close_endpoint(id);
}

bool FaultyTransport::is_live(NodeId id) const { return inner_.is_live(id); }

std::size_t FaultyTransport::join_round() const {
  return inner_.join_round();
}

void FaultyTransport::send(Message msg) {
  staged_.push_back(std::move(msg));
}

void FaultyTransport::record(FaultEvent event) {
  // Per-kind names, indexed by FaultEvent::Kind. Interned once.
  struct FaultObs {
    std::array<obs::MetricId, 5> counters;
    std::array<std::uint32_t, 5> instants;
    FaultObs() {
      static constexpr std::array<std::string_view, 5> kKinds = {
          "drop", "duplicate", "delay", "reorder", "partition"};
      for (std::size_t k = 0; k < kKinds.size(); ++k) {
        counters[k] = obs::counter_id("fault." + std::string(kKinds[k]));
        instants[k] =
            obs::span_name_id("fault." + std::string(kKinds[k]));
      }
    }
  };
  static const FaultObs fault_obs;
  const auto k = static_cast<std::size_t>(event.kind);
  obs::counter_add(fault_obs.counters[k]);
  // arg0 packs (send round, until_round), arg1 packs (from, to) — the
  // fault stream's full decision, correlated with net.round spans by the
  // round number.
  obs::instant(obs::Cat::kFault, fault_obs.instants[k],
               (static_cast<std::uint64_t>(event.round) << 32) |
                   (event.until_round & 0xFFFFFFFFULL),
               (event.from.value() << 32) | (event.to.value() & 0xFFFFFFFFULL));
  events_.push_back(event);
}

void FaultyTransport::end_round(std::size_t round) {
  // Per-pair groups: delayed arrivals due this round go first, then this
  // round's survivors. std::map iteration gives ascending (from, to) — the
  // normalized delivery order both deployments share.
  struct Group {
    std::vector<Message> due;
    std::vector<Message> fresh;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Group> groups;

  for (auto& d : delayed_) {
    if (d.due_round != round) continue;
    groups[{d.msg.from.value(), d.msg.to.value()}].due.push_back(
        std::move(d.msg));
  }
  std::erase_if(delayed_,
                [round](const Delayed& d) { return d.due_round == round; });

  for (Message& msg : staged_) {
    const std::pair<std::uint64_t, std::uint64_t> pair{msg.from.value(),
                                                       msg.to.value()};
    const std::uint64_t stream = pair_stream(pair.first, pair.second);

    if (plan_.partition > 0 && plan_.partition_rounds > 0) {
      const std::uint64_t window = round / plan_.partition_rounds;
      Rng prng = Rng::derive_stream(seed_ ^ kPartitionSalt, stream, window);
      if (prng.bernoulli(plan_.partition)) {
        record(FaultEvent{FaultEvent::Kind::kPartition, round, msg.from,
                          msg.to, (window + 1) * plan_.partition_rounds});
        continue;
      }
    }

    const std::uint64_t seq = pair_seq_[pair]++;
    Rng rng = Rng::derive_stream(seed_, stream, seq);
    // Draw order is fixed (drop, delay, duplicate) so the stream consumed
    // per message is identical in every deployment.
    const bool dropped = rng.bernoulli(plan_.drop);
    const bool delayed = rng.bernoulli(plan_.delay);
    const bool duplicated = rng.bernoulli(plan_.duplicate);
    if (dropped) {
      record(FaultEvent{FaultEvent::Kind::kDrop, round, msg.from, msg.to, 0});
      continue;
    }
    if (delayed && plan_.max_delay_rounds > 0) {
      const std::size_t by =
          1 + static_cast<std::size_t>(rng.uniform(plan_.max_delay_rounds));
      record(FaultEvent{FaultEvent::Kind::kDelay, round, msg.from, msg.to,
                        round + by});
      delayed_.push_back(Delayed{round + by, std::move(msg)});
      continue;
    }
    Group& g = groups[pair];
    if (duplicated) {
      record(FaultEvent{FaultEvent::Kind::kDuplicate, round, msg.from,
                        msg.to, 0});
      g.fresh.push_back(msg);
    }
    g.fresh.push_back(std::move(msg));
  }
  staged_.clear();

  for (auto& [pair, group] : groups) {
    if (plan_.reorder > 0 && group.fresh.size() >= 2) {
      const std::uint64_t stream = pair_stream(pair.first, pair.second);
      Rng rng = Rng::derive_stream(seed_ ^ kReorderSalt, stream, round);
      if (rng.bernoulli(plan_.reorder)) {
        std::reverse(group.fresh.begin(), group.fresh.end());
        record(FaultEvent{FaultEvent::Kind::kReorder, round,
                          NodeId{pair.first}, NodeId{pair.second}, 0});
      }
    }
    for (Message& m : group.due) inner_.send(std::move(m));
    for (Message& m : group.fresh) inner_.send(std::move(m));
  }

  inner_.end_round(round);
}

void FaultyTransport::poll(NodeId id, std::vector<Message>& out) {
  inner_.poll(id, out);
}

}  // namespace now::net
