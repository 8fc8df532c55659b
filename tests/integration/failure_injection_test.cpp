// Failure-injection tests: drive the message-level protocols with every
// modeled Byzantine behavior simultaneously with crashes/departures, and
// check the guarantees degrade exactly at the thresholds the theory gives —
// not before, not silently after.
#include <gtest/gtest.h>

#include "agreement/phase_king.hpp"
#include "cluster/rand_num.hpp"
#include "net/network.hpp"

namespace now {
namespace {

std::vector<NodeId> make_members(std::size_t n) {
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < n; ++i) members.emplace_back(i);
  return members;
}

TEST(FailureInjectionTest, PhaseKingBreaksBeyondOneThird) {
  // With f >= n/3 the King algorithm's guarantees are void: demonstrate an
  // actual disagreement or validity violation can occur (this documents the
  // sharpness of the bound — at 5 of 13 Byzantine the honest nodes can be
  // steered).
  Metrics metrics;
  const auto members = make_members(13);
  NodeSet byz;
  for (std::size_t i = 0; i < 5; ++i) byz.insert(members[i]);  // > 13/3

  bool any_break = false;
  for (std::uint64_t seed = 0; seed < 30 && !any_break; ++seed) {
    Rng rng{seed};
    std::map<NodeId, std::uint64_t> inputs;
    for (const NodeId m : members) inputs[m] = 1;  // honest unanimity
    const auto result =
        run_phase_king(members, byz, inputs,
                       agreement::ByzBehavior::kEquivocate, metrics, rng);
    for (const auto& [id, v] : result.decisions) {
      if (v != 1) any_break = true;  // validity broken
    }
    std::uint64_t first = result.decisions.begin()->second;
    for (const auto& [id, v] : result.decisions) {
      if (v != first) any_break = true;  // agreement broken
    }
  }
  EXPECT_TRUE(any_break)
      << "expected the f >= n/3 regime to be breakable (bound sharpness)";
}

TEST(FailureInjectionTest, PhaseKingSurvivesExactlyAtTheBound) {
  // f = 4, n = 13 (f < n/3): must hold against the strongest behavior.
  Metrics metrics;
  const auto members = make_members(13);
  NodeSet byz;
  for (std::size_t i = 0; i < 4; ++i) byz.insert(members[i]);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng{seed + 100};
    std::map<NodeId, std::uint64_t> inputs;
    for (const NodeId m : members) inputs[m] = 1;
    const auto result =
        run_phase_king(members, byz, inputs,
                       agreement::ByzBehavior::kEquivocate, metrics, rng);
    for (const auto& [id, v] : result.decisions) ASSERT_EQ(v, 1u);
  }
}

TEST(FailureInjectionTest, RandNumFastModeDivergenceIsDetected) {
  // Mixed behaviors: the selective revealer can split honest views in fast
  // mode; the result flag must report it (no silent divergence).
  Metrics metrics;
  Rng rng{1};
  const auto members = make_members(9);
  const NodeSet byz{NodeId{0}, NodeId{1}};
  int diverged = 0;
  for (int i = 0; i < 400; ++i) {
    const auto result = cluster::run_rand_num(
        members, byz, 1 << 20, cluster::RandNumMode::kFast,
        cluster::RandNumByz::kSelectiveReveal, metrics, rng);
    diverged += result.agreement ? 0 : 1;
  }
  // With a wide range, almost every selective reveal splits the views —
  // and the flag must report every one of them.
  EXPECT_GT(diverged, 350);
}

TEST(FailureInjectionTest, RandNumRobustModeHandlesEveryBehaviorMatrix) {
  Metrics metrics;
  Rng rng{2};
  for (const std::size_t n : {4u, 7u, 10u, 13u}) {
    const auto members = make_members(n);
    NodeSet byz;
    for (std::size_t i = 0; i < (n - 1) / 3; ++i) byz.insert(members[i]);
    for (const auto behavior :
         {cluster::RandNumByz::kFollow, cluster::RandNumByz::kSilent,
          cluster::RandNumByz::kBiased,
          cluster::RandNumByz::kSelectiveReveal}) {
      for (int i = 0; i < 30; ++i) {
        const auto result = cluster::run_rand_num(
            members, byz, 64, cluster::RandNumMode::kRobust, behavior,
            metrics, rng);
        ASSERT_TRUE(result.agreement)
            << "n=" << n << " behavior=" << static_cast<int>(behavior);
        ASSERT_LT(result.value, 64u);
      }
    }
  }
}

TEST(FailureInjectionTest, DepartureMidProtocolDropsCleanly) {
  // An actor removed between rounds must not wedge the network or receive
  // ghost messages.
  Metrics metrics;
  net::InProcTransport transport;
  net::RoundEngine network{metrics, transport};

  class Chatter final : public net::Actor {
   public:
    Chatter(NodeId self, std::vector<NodeId> peers)
        : self_(self), peers_(std::move(peers)) {}
    void on_round(std::size_t, std::span<const net::Message> inbox,
                  net::Outbox& out) override {
      received += inbox.size();
      out.multicast(peers_, net::Tag::kApp, net::make_words({self_.value()}));
    }
    NodeId self_;
    std::vector<NodeId> peers_;
    std::size_t received = 0;
  };

  std::vector<NodeId> all{NodeId{1}, NodeId{2}, NodeId{3}};
  std::vector<Chatter*> raw;
  for (const NodeId id : all) {
    auto actor = std::make_unique<Chatter>(id, all);
    raw.push_back(actor.get());
    network.add_actor(id, std::move(actor));
  }
  network.run_rounds(3);
  const std::size_t before = raw[2]->received;
  network.remove_actor(NodeId{1});
  network.run_rounds(3);
  // Node 3 keeps receiving from node 2 (and itself) only.
  EXPECT_GT(raw[2]->received, before);
}

}  // namespace
}  // namespace now
