#include "net/network.hpp"

#include <memory>

#include <gtest/gtest.h>

namespace now::net {
namespace {

/// Actor that records its inbox and sends a fixed batch each round.
class EchoActor final : public Actor {
 public:
  EchoActor(NodeId peer, std::vector<std::uint64_t> words)
      : peer_(peer), payload_(pack_words(words)) {}

  void on_round(std::size_t /*round*/, std::span<const Message> inbox,
                Outbox& out) override {
    received_.insert(received_.end(), inbox.begin(), inbox.end());
    out.send(peer_, Tag::kApp, payload_);
  }

  [[nodiscard]] const std::vector<Message>& received() const {
    return received_;
  }

 private:
  NodeId peer_;
  Payload payload_;
  std::vector<Message> received_;
};

TEST(RoundEngineTest, MessagesArriveNextRound) {
  Metrics metrics;
  InProcTransport transport;
  RoundEngine net{metrics, transport};
  auto a = std::make_unique<EchoActor>(NodeId{2},
                                       std::vector<std::uint64_t>{7});
  auto* a_ptr = a.get();
  auto b = std::make_unique<EchoActor>(NodeId{1},
                                       std::vector<std::uint64_t>{9});
  net.add_actor(NodeId{1}, std::move(a));
  net.add_actor(NodeId{2}, std::move(b));

  net.run_round();
  EXPECT_TRUE(a_ptr->received().empty());  // round 0 sends, nothing received
  net.run_round();
  ASSERT_EQ(a_ptr->received().size(), 1u);
  EXPECT_EQ(a_ptr->received()[0].from, NodeId{2});
  EXPECT_EQ(word(a_ptr->received()[0].payload, 0), 9u);
}

TEST(RoundEngineTest, CostsCountPayloadUnits) {
  Metrics metrics;
  InProcTransport transport;
  RoundEngine net{metrics, transport};
  net.add_actor(NodeId{1}, std::make_unique<EchoActor>(
                               NodeId{2}, std::vector<std::uint64_t>{1, 2, 3}));
  net.add_actor(NodeId{2}, std::make_unique<EchoActor>(
                               NodeId{1}, std::vector<std::uint64_t>{}));
  net.run_round();
  // 3 units from actor 1 + 1 unit (empty payload still costs 1) from actor 2.
  EXPECT_EQ(metrics.total().messages, 4u);
  EXPECT_EQ(metrics.total().rounds, 1u);
}

TEST(RoundEngineTest, RemovedActorDropsMail) {
  Metrics metrics;
  InProcTransport transport;
  RoundEngine net{metrics, transport};
  auto a = std::make_unique<EchoActor>(NodeId{2},
                                       std::vector<std::uint64_t>{5});
  auto b = std::make_unique<EchoActor>(NodeId{1},
                                       std::vector<std::uint64_t>{6});
  auto* b_ptr = b.get();
  net.add_actor(NodeId{1}, std::move(a));
  net.add_actor(NodeId{2}, std::move(b));
  net.run_round();
  EXPECT_TRUE(net.remove_actor(NodeId{1}));
  EXPECT_FALSE(net.is_live(NodeId{1}));
  // Messages to the departed node vanish; the network keeps running.
  net.run_round();
  net.run_round();
  EXPECT_FALSE(b_ptr->received().empty());
}

TEST(RoundEngineTest, RemoveUnknownActorReturnsFalse) {
  Metrics metrics;
  InProcTransport transport;
  RoundEngine net{metrics, transport};
  EXPECT_FALSE(net.remove_actor(NodeId{42}));
}

TEST(RoundEngineTest, RoundsAdvance) {
  Metrics metrics;
  InProcTransport transport;
  RoundEngine net{metrics, transport};
  net.add_actor(NodeId{1}, std::make_unique<EchoActor>(
                               NodeId{1}, std::vector<std::uint64_t>{}));
  net.run_rounds(5);
  EXPECT_EQ(net.round(), 5u);
  EXPECT_EQ(metrics.total().rounds, 5u);
}

TEST(OutboxTest, MulticastReachesAllDestinations) {
  Metrics metrics;
  InProcTransport transport;
  RoundEngine net{metrics, transport};

  class Multicaster final : public Actor {
   public:
    void on_round(std::size_t round, std::span<const Message>,
                  Outbox& out) override {
      if (round == 0) {
        const std::vector<NodeId> peers{NodeId{2}, NodeId{3}};
        out.multicast(peers, Tag::kApp, make_words({11}));
      }
    }
  };
  class Sink final : public Actor {
   public:
    void on_round(std::size_t, std::span<const Message> inbox,
                  Outbox&) override {
      count += inbox.size();
    }
    std::size_t count = 0;
  };

  auto s2 = std::make_unique<Sink>();
  auto s3 = std::make_unique<Sink>();
  auto* s2p = s2.get();
  auto* s3p = s3.get();
  net.add_actor(NodeId{1}, std::make_unique<Multicaster>());
  net.add_actor(NodeId{2}, std::move(s2));
  net.add_actor(NodeId{3}, std::move(s3));
  net.run_rounds(2);
  EXPECT_EQ(s2p->count, 1u);
  EXPECT_EQ(s3p->count, 1u);
}

TEST(MessageTest, PackedWordsAreLittleEndianAndCostTheirWordCount) {
  const Payload payload = make_words({0x0102030405060708ull, 0, ~0ull});
  ASSERT_EQ(payload.size(), 24u);
  EXPECT_EQ(payload[0], 0x08);
  EXPECT_EQ(payload[7], 0x01);
  EXPECT_EQ(word_count(payload), 3u);
  EXPECT_EQ(word(payload, 0), 0x0102030405060708ull);
  EXPECT_EQ(word(payload, 1), 0u);
  EXPECT_EQ(word(payload, 2), ~0ull);

  Message m{NodeId{1}, NodeId{2}, Tag::kApp, payload};
  EXPECT_EQ(m.cost_units(), 3u);
  // A started word costs a whole unit; an empty payload still costs one.
  m.payload.push_back(0);
  EXPECT_EQ(word_count(m.payload), 3u);
  EXPECT_EQ(m.cost_units(), 4u);
  m.payload.clear();
  EXPECT_EQ(m.cost_units(), 1u);
}

}  // namespace
}  // namespace now::net
