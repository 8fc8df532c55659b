// Transport-layer tests (DESIGN.md §12): wire codec rejection semantics,
// InProcTransport barrier behavior, FaultyTransport determinism, and —
// via fork()ed worker processes over real local TCP — bit-identity of the
// multi-process sharded runtime against the single-process reference,
// including crash-and-restore recovery from checkpoints.
#include "net/transport.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/snapshot.hpp"
#include "net/faulty_transport.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "sim/shard_runtime.hpp"

namespace now::net {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- wire codec

Message sample_message() {
  Message msg;
  msg.from = NodeId{3};
  msg.to = NodeId{11};
  msg.tag = Tag::kShardDigest;
  msg.payload = make_words({0xDEADBEEFCAFEF00DULL, 42, 7});
  return msg;
}

/// Recomputes the trailing checksum after a deliberate header mutation, so
/// decode failures exercise the field validation, not just the checksum.
void patch_checksum(std::vector<std::uint8_t>& frame) {
  const std::uint64_t sum = core::fnv1a64(frame.data(), frame.size() - 8);
  for (std::size_t i = 0; i < 8; ++i) {
    frame[frame.size() - 8 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

TEST(WireCodecTest, RoundTripsAllFields) {
  const Message msg = sample_message();
  const Message back = decode_frame(encode_frame(msg));
  EXPECT_EQ(back, msg);
}

TEST(WireCodecTest, RoundTripsEmptyPayload) {
  Message msg;
  msg.from = NodeId{0};
  msg.to = NodeId{1};
  msg.tag = Tag::kShardBye;
  const Message back = decode_frame(encode_frame(msg));
  EXPECT_EQ(back, msg);
  EXPECT_EQ(back.cost_units(), 1u);
}

TEST(WireCodecTest, RejectsEveryTruncation) {
  const auto frame = encode_frame(sample_message());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_THROW(
        (void)decode_frame(std::span<const std::uint8_t>{frame.data(), len}),
        WireError)
        << "prefix length " << len;
  }
}

TEST(WireCodecTest, RejectsEverySingleBitFlip) {
  const auto frame = encode_frame(sample_message());
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    auto corrupt = frame;
    corrupt[pos] ^= 0x40;
    EXPECT_THROW((void)decode_frame(corrupt), WireError) << "byte " << pos;
  }
}

TEST(WireCodecTest, RejectsTrailingBytes) {
  auto frame = encode_frame(sample_message());
  frame.push_back(0);
  EXPECT_THROW((void)decode_frame(frame), WireError);
}

TEST(WireCodecTest, RejectsUnknownVersionEvenWithValidChecksum) {
  auto frame = encode_frame(sample_message());
  frame[4] = kWireFormatVersion + 1;
  patch_checksum(frame);
  EXPECT_THROW((void)decode_frame(frame), WireError);
}

TEST(WireCodecTest, RejectsUnknownTagEvenWithValidChecksum) {
  auto frame = encode_frame(sample_message());
  const std::uint16_t bad_tag = kMaxTag + 1;
  frame[5] = static_cast<std::uint8_t>(bad_tag);
  frame[6] = static_cast<std::uint8_t>(bad_tag >> 8);
  patch_checksum(frame);
  EXPECT_THROW((void)decode_frame(frame), WireError);
}

TEST(WireCodecTest, RejectsBadMagicEvenWithValidChecksum) {
  auto frame = encode_frame(sample_message());
  frame[0] = 'X';
  patch_checksum(frame);
  EXPECT_THROW((void)decode_frame(frame), WireError);
}

// -------------------------------------------------------- InProcTransport

TEST(InProcTransportTest, BarrierGatesDeliveryAndCloseDrops) {
  InProcTransport t;
  t.open_endpoint(NodeId{1});
  t.open_endpoint(NodeId{2});
  t.send(Message{NodeId{1}, NodeId{2}, Tag::kApp, make_words({5})});

  std::vector<Message> got;
  t.poll(NodeId{2}, got);
  EXPECT_TRUE(got.empty());  // not deliverable before the barrier

  t.end_round(0);
  t.poll(NodeId{2}, got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(word(got[0].payload, 0), 5u);

  EXPECT_TRUE(t.close_endpoint(NodeId{2}));
  EXPECT_FALSE(t.is_live(NodeId{2}));
  EXPECT_FALSE(t.close_endpoint(NodeId{2}));
  t.send(Message{NodeId{1}, NodeId{2}, Tag::kApp, {}});
  t.end_round(1);
  t.poll(NodeId{2}, got);
  EXPECT_TRUE(got.empty());  // mail to departed endpoints vanishes
}

// -------------------------------------------------------- FaultyTransport

struct FaultyRun {
  std::vector<std::vector<Message>> delivered;  // per round, all endpoints
  std::vector<FaultEvent> events;
};

/// Drives a fixed all-pairs message schedule through a FaultyTransport for
/// ten rounds (plus drain rounds for in-flight delays) and records the
/// exact delivered trajectory and fault log.
FaultyRun run_faulty_schedule(std::uint64_t seed) {
  InProcTransport inner;
  FaultPlan plan;
  plan.drop = 0.2;
  plan.duplicate = 0.2;
  plan.delay = 0.25;
  plan.max_delay_rounds = 2;
  plan.reorder = 0.5;
  plan.partition = 0.3;
  plan.partition_rounds = 2;
  FaultyTransport faulty{inner, plan, seed};

  constexpr std::uint64_t kNodes = 4;
  for (std::uint64_t id = 1; id <= kNodes; ++id) {
    faulty.open_endpoint(NodeId{id});
  }

  FaultyRun run;
  std::vector<Message> got;
  for (std::size_t round = 0; round < 14; ++round) {
    if (round < 10) {  // rounds 10+ only drain delayed messages
      for (std::uint64_t from = 1; from <= kNodes; ++from) {
        for (std::uint64_t to = 1; to <= kNodes; ++to) {
          if (from == to) continue;
          faulty.send(Message{NodeId{from}, NodeId{to}, Tag::kApp,
                              make_words({round * 100 + from * 10 + to})});
          faulty.send(Message{NodeId{from}, NodeId{to}, Tag::kApp,
                              make_words({round * 1000 + from * 10 + to})});
        }
      }
    }
    faulty.end_round(round);
    std::vector<Message> round_msgs;
    for (std::uint64_t id = 1; id <= kNodes; ++id) {
      faulty.poll(NodeId{id}, got);
      round_msgs.insert(round_msgs.end(), got.begin(), got.end());
    }
    run.delivered.push_back(std::move(round_msgs));
  }
  run.events = faulty.events();
  return run;
}

TEST(FaultyTransportTest, SameSeedReproducesTrajectoryAndFaultLog) {
  const FaultyRun a = run_faulty_schedule(42);
  const FaultyRun b = run_faulty_schedule(42);

  EXPECT_EQ(a.delivered, b.delivered);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
    EXPECT_EQ(a.events[i].round, b.events[i].round) << "event " << i;
    EXPECT_EQ(a.events[i].from, b.events[i].from) << "event " << i;
    EXPECT_EQ(a.events[i].to, b.events[i].to) << "event " << i;
    EXPECT_EQ(a.events[i].until_round, b.events[i].until_round)
        << "event " << i;
  }

  // The plan enables every fault class; with 24 messages x 10 rounds each
  // class fires with overwhelming probability on this fixed seed.
  std::map<FaultEvent::Kind, std::size_t> by_kind;
  for (const FaultEvent& e : a.events) ++by_kind[e.kind];
  EXPECT_GT(by_kind[FaultEvent::Kind::kDrop], 0u);
  EXPECT_GT(by_kind[FaultEvent::Kind::kDuplicate], 0u);
  EXPECT_GT(by_kind[FaultEvent::Kind::kDelay], 0u);
  EXPECT_GT(by_kind[FaultEvent::Kind::kReorder], 0u);
  EXPECT_GT(by_kind[FaultEvent::Kind::kPartition], 0u);
}

TEST(FaultyTransportTest, DelayedMessagesArriveWithinBound) {
  const FaultyRun run = run_faulty_schedule(7);
  // Everything sent by round 9 with max delay 2 is delivered by round 12's
  // poll; the drain rounds past that must be empty.
  EXPECT_TRUE(run.delivered.at(13).empty());
  for (const FaultEvent& e : run.events) {
    if (e.kind == FaultEvent::Kind::kDelay) {
      EXPECT_GT(e.until_round, e.round);
      EXPECT_LE(e.until_round, e.round + 2);
    }
  }
}

// ------------------------------------------------- sharded runtime parity

sim::ShardSpec small_spec(std::uint64_t seed) {
  sim::ShardSpec spec;
  spec.num_shards = 2;
  spec.steps = 4;
  spec.batch_ops = 2;
  spec.n0 = 24;
  spec.seed = seed;
  return spec;
}

TEST(ShardRuntimeTest, FaultsDoNotChangeTheTrajectory) {
  const sim::ShardSpec spec = small_spec(11);
  const sim::ShardRunResult ref = sim::run_single_process(spec);
  ASSERT_EQ(ref.steps_completed, spec.steps);
  ASSERT_NE(ref.run_digest, 0u);

  FaultPlan plan;
  plan.drop = 0.1;
  plan.duplicate = 0.1;
  plan.delay = 0.15;
  plan.reorder = 0.2;
  plan.partition = 0.2;
  plan.partition_rounds = 3;
  const sim::ShardRunResult faulted =
      sim::run_single_process(spec, &plan, 99);

  // Faults stretch the run (retransmissions) but must not perturb any
  // shard's state trajectory: the digests are bit-equal.
  EXPECT_EQ(faulted.run_digest, ref.run_digest);
  EXPECT_EQ(faulted.step_digests, ref.step_digests);
  EXPECT_GE(faulted.engine_rounds, ref.engine_rounds);
}

/// Forks a worker process for `shard` connecting to the hub at `port`.
/// The child never returns; it exits 0 on success, 1 on any exception,
/// or ShardWorkerActor::kCrashExitCode when `crash_after` triggers.
pid_t spawn_worker_process(const sim::ShardSpec& spec, std::size_t shard,
                           std::uint16_t port, std::size_t crash_after = 0) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  int code = 0;
  try {
    auto spoke = SocketSpoke::connect(port, shard);
    sim::run_worker(spec, shard, *spoke, crash_after);
  } catch (...) {
    code = 1;
  }
  std::_Exit(code);
}

TEST(SocketParityTest, MultiProcessRunMatchesInProcDigest) {
  const sim::ShardSpec spec = small_spec(17);
  const sim::ShardRunResult ref = sim::run_single_process(spec);

  auto hub = SocketHub::listen(spec.num_shards);
  std::vector<pid_t> pids;
  for (std::size_t s = 0; s < spec.num_shards; ++s) {
    pids.push_back(spawn_worker_process(spec, s, hub->port()));
  }
  hub->accept_initial();
  const sim::ShardRunResult result = sim::run_hub(spec, *hub, *hub);

  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  EXPECT_EQ(result.run_digest, ref.run_digest);
  EXPECT_EQ(result.step_digests, ref.step_digests);
  EXPECT_EQ(result.steps_completed, ref.steps_completed);
  EXPECT_EQ(result.final_stats.num_nodes, ref.final_stats.num_nodes);
  EXPECT_EQ(result.final_stats.messages, ref.final_stats.messages);
}

TEST(SocketParityTest, CrashedWorkerRestoresFromCheckpointAndReproduces) {
  sim::ShardSpec spec = small_spec(23);
  spec.steps = 5;
  spec.checkpoint_every = 2;
  spec.checkpoint_dir =
      (fs::temp_directory_path() /
       ("now_transport_test_ckpt_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(spec.checkpoint_dir);
  fs::create_directories(spec.checkpoint_dir);

  sim::ShardSpec ref_spec = spec;  // reference must not touch checkpoints
  ref_spec.checkpoint_every = 0;
  ref_spec.checkpoint_dir.clear();
  const sim::ShardRunResult ref = sim::run_single_process(ref_spec);

  auto hub = SocketHub::listen(spec.num_shards);
  std::map<std::uint64_t, pid_t> worker_pid;
  worker_pid[0] = spawn_worker_process(spec, 0, hub->port());
  // Shard 1 checkpoints at step 2 and crashes right after step 3.
  worker_pid[1] = spawn_worker_process(spec, 1, hub->port(),
                                       /*crash_after=*/3);
  hub->accept_initial();

  int respawns = 0;
  const sim::ShardRunResult result = sim::run_hub(
      spec, *hub, *hub, [&](bool finished) {
        for (const std::uint64_t shard : hub->drain_dead_processes()) {
          int status = 0;
          ::waitpid(worker_pid.at(shard), &status, 0);
          if (finished) continue;  // orderly end-of-run exits
          worker_pid[shard] =
              spawn_worker_process(spec, shard, hub->port());
          ++respawns;
        }
      });

  for (const auto& [shard, pid] : worker_pid) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  EXPECT_EQ(respawns, 1);
  EXPECT_EQ(result.run_digest, ref.run_digest);
  EXPECT_EQ(result.step_digests, ref.step_digests);
  EXPECT_EQ(result.steps_completed, ref.steps_completed);
  fs::remove_all(spec.checkpoint_dir);
}

}  // namespace
}  // namespace now::net
