// Tests for the trace & checkpoint half of the snapshot subsystem
// (sim/trace.hpp, sim/corpus.hpp, DESIGN.md §8): record/replay round
// trips on both scenario drivers, divergence detection, halt/resume
// equivalence against the uninterrupted run, and the corpus generator's
// determinism + shrink behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/snapshot.hpp"
#include "sim/corpus.hpp"
#include "sim/trace.hpp"

namespace now::sim {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// Batched adversarial scenario: corrupted joiners, targeted placement,
/// forced-leave quota — every trace frame type gets exercised.
ScenarioConfig batched_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.params.max_size = 1 << 12;
  config.params.walk_mode = core::WalkMode::kSampleExact;
  config.params.k = 10;
  config.params.tau = 0.10;
  config.n0 = 800;
  config.topology = core::InitTopology::kModeledSparse;
  config.steps = 40;
  config.sample_every = 5;
  config.seed = seed;
  config.batch_ops = 6;
  config.shards = 4;
  config.batch_byz_fraction = 0.10;
  config.batch_placement = BatchPlacement::kTargeted;
  config.batch_leave_quota = 2;
  return config;
}

void expect_same_outcome(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    ASSERT_EQ(a.samples[i], b.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(a.peak_byz_fraction, b.peak_byz_fraction);
  EXPECT_EQ(a.ever_compromised, b.ever_compromised);
  EXPECT_EQ(a.first_compromise_step, b.first_compromise_step);
  EXPECT_EQ(a.total_splits, b.total_splits);
  EXPECT_EQ(a.total_merges, b.total_merges);
  EXPECT_EQ(a.final_nodes, b.final_nodes);
  EXPECT_EQ(a.final_clusters, b.final_clusters);
  EXPECT_EQ(a.final_byzantine, b.final_byzantine);
  EXPECT_EQ(a.total_forced_leaves, b.total_forced_leaves);
  EXPECT_EQ(a.max_step_forced_leaves, b.max_step_forced_leaves);
}

TEST(TraceTest, BatchedScenarioRecordsAndReplaysExactly) {
  const std::string path = temp_path("now_batched.trace");
  ScenarioConfig config = batched_config(11);
  config.trace_path = path;
  Metrics metrics;
  adversary::RandomChurnAdversary adversary{
      config.params.tau, adversary::ChurnSchedule::hold(config.n0)};
  const ScenarioResult recorded = run_scenario(config, adversary, metrics);

  const TraceReplayResult replay = replay_trace(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.steps_replayed, config.steps);
  EXPECT_EQ(replay.samples_checked, recorded.samples.size());
  ASSERT_EQ(replay.result.samples.size(), recorded.samples.size());
  for (std::size_t i = 0; i < recorded.samples.size(); ++i) {
    EXPECT_EQ(replay.result.samples[i], recorded.samples[i]);
  }
  EXPECT_EQ(replay.result.peak_byz_fraction, recorded.peak_byz_fraction);
  EXPECT_EQ(replay.result.final_nodes, recorded.final_nodes);
  EXPECT_EQ(replay.result.total_splits, recorded.total_splits);
  EXPECT_FALSE(describe_trace(path).empty());
  std::remove(path.c_str());
}

TEST(TraceTest, PerStepAdversaryScenarioReplaysExactly) {
  // The sequential driver: every join/leave the adversary issues is its
  // own trace frame, and the replayer re-drives them one by one.
  const std::string path = temp_path("now_adversary.trace");
  ScenarioConfig config;
  config.params.max_size = 1 << 12;
  config.params.walk_mode = core::WalkMode::kSampleExact;
  config.params.k = 10;
  config.params.tau = 0.10;
  config.n0 = 600;
  config.topology = core::InitTopology::kModeledSparse;
  config.steps = 60;
  config.sample_every = 10;
  config.seed = 23;
  config.trace_path = path;
  Metrics metrics;
  adversary::JoinLeaveAdversary adversary{
      config.params.tau, adversary::ChurnSchedule::hold(config.n0), 0.3};
  const ScenarioResult recorded = run_scenario(config, adversary, metrics);

  const TraceReplayResult replay = replay_trace(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.samples_checked, recorded.samples.size());
  EXPECT_EQ(replay.result.final_nodes, recorded.final_nodes);
  std::remove(path.c_str());
}

TEST(TraceTest, ReplayDetectsInjectedDivergence) {
  // A recorder is just a writer: feed it a fabricated invariant sample
  // mid-run and the replayer must flag exactly that sample.
  const std::string path = temp_path("now_tampered.trace");
  ScenarioConfig config = batched_config(31);
  Metrics metrics;
  core::NowSystem system{config.params, metrics, config.seed};
  system.initialize(config.n0, 80, config.topology);
  TraceRecorder recorder{config, config.n0, 80, "manual"};
  system.set_trace_sink(&recorder);
  Rng driver{config.seed ^ 0xC0FFEE5EEDULL};
  for (std::size_t t = 1; t <= 6; ++t) {
    recorder.begin_step(t);
    const auto victims = system.state().sample_distinct_nodes(driver, 4);
    system.step_parallel_mixed(4, 1, victims, 2);
  }
  InvariantSample bogus;
  bogus.step = 6;
  bogus.num_nodes = system.num_nodes() + 1;  // deliberately wrong
  bogus.num_clusters = system.num_clusters();
  recorder.record_sample(bogus);
  system.set_trace_sink(nullptr);
  recorder.finish(ScenarioResult{}, path);

  const TraceReplayResult replay = replay_trace(path);
  EXPECT_FALSE(replay.ok);
  EXPECT_NE(replay.error.find("invariant sample diverged"),
            std::string::npos)
      << replay.error;
  std::remove(path.c_str());
}

/// Little-endian bytes of `value`, the trace's integer encoding.
std::vector<std::uint8_t> le_bytes(std::uint64_t value) {
  std::vector<std::uint8_t> bytes(8);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return bytes;
}

TEST(TraceTest, MalformedBatchFramesAreRejectedNotReplayed) {
  // Only run_scenario writes batch frames: at most batch_ops joins and
  // distinct leave victims. A re-stamped trace (intact checksum) whose
  // batch frame breaks either rule is malformed: replay must throw
  // SnapshotError before the engine runs the batch — a repeated victim
  // used to reach the commit and throw std::invalid_argument mid-apply.
  const std::string path = temp_path("now_malformed_batch.trace");
  const ScenarioConfig config = batched_config(37);
  Metrics metrics;
  core::NowSystem system{config.params, metrics, config.seed};
  system.initialize(config.n0, 80, config.topology);
  TraceRecorder recorder{config, config.n0, 80, "manual"};
  system.set_trace_sink(&recorder);
  Rng driver{config.seed};
  recorder.begin_step(1);
  const auto victims = system.state().sample_distinct_nodes(driver, 2);
  system.step_parallel_mixed(4, 1, victims, 2);
  system.set_trace_sink(nullptr);
  recorder.finish(ScenarioResult{}, path);

  core::SnapshotReader reader = core::SnapshotReader::read_file(
      path, "NOWTRAC1", kTraceFormatVersion, kTraceFormatVersion);
  std::vector<std::uint8_t> pristine(reader.size());
  reader.bytes(pristine.data(), pristine.size());
  // The frame's tail: joins, byz_joins, shards, victim count, victims.
  std::vector<std::uint8_t> tail;
  for (const std::uint64_t field :
       {std::uint64_t{4}, std::uint64_t{1}, std::uint64_t{2},
        std::uint64_t{2}, victims[0].value(), victims[1].value()}) {
    const std::vector<std::uint8_t> bytes = le_bytes(field);
    tail.insert(tail.end(), bytes.begin(), bytes.end());
  }
  const auto frame =
      std::search(pristine.begin(), pristine.end(), tail.begin(), tail.end());
  ASSERT_NE(frame, pristine.end());
  const std::size_t joins_at =
      static_cast<std::size_t>(frame - pristine.begin());
  const std::size_t second_victim_at = joins_at + 5 * 8;

  const auto expect_rejected = [&](std::size_t offset, std::uint64_t value,
                                   const std::string& message) {
    std::vector<std::uint8_t> payload = pristine;
    const std::vector<std::uint8_t> bytes = le_bytes(value);
    std::copy(bytes.begin(), bytes.end(),
              payload.begin() + static_cast<std::ptrdiff_t>(offset));
    core::SnapshotWriter restamped;
    restamped.bytes(payload.data(), payload.size());
    restamped.write_file(path, "NOWTRAC1", kTraceFormatVersion);
    try {
      (void)replay_trace(path);
      ADD_FAILURE() << "replayed a frame that should fail: " << message;
    } catch (const core::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  };
  expect_rejected(second_victim_at, victims[0].value(),
                  "names leave victim " +
                      std::to_string(victims[0].value()) + " twice");
  expect_rejected(joins_at, config.batch_ops + 1,
                  "more than the header's batch_ops");
  // The untouched frame is well-formed: it replays without throwing.
  core::SnapshotWriter restamped;
  restamped.bytes(pristine.data(), pristine.size());
  restamped.write_file(path, "NOWTRAC1", kTraceFormatVersion);
  EXPECT_NO_THROW((void)replay_trace(path));
  std::remove(path.c_str());
}

TEST(TraceTest, HaltAndResumeMatchesUninterruptedBatchedRun) {
  const std::string ckpt = temp_path("now_batched.ckpt");
  const ScenarioConfig base = batched_config(47);

  Metrics metrics_full;
  adversary::RandomChurnAdversary adv_full{
      base.params.tau, adversary::ChurnSchedule::hold(base.n0)};
  const ScenarioResult full = run_scenario(base, adv_full, metrics_full);
  ASSERT_EQ(full.halted_at_step, 0u);

  ScenarioConfig halted = base;
  halted.checkpoint_path = ckpt;
  halted.halt_at = 20;
  Metrics metrics_half;
  adversary::RandomChurnAdversary adv_half{
      base.params.tau, adversary::ChurnSchedule::hold(base.n0)};
  const ScenarioResult partial = run_scenario(halted, adv_half,
                                              metrics_half);
  EXPECT_EQ(partial.halted_at_step, 20u);
  EXPECT_LT(partial.samples.size(), full.samples.size());

  ScenarioConfig resumed = base;
  resumed.resume_from = ckpt;
  Metrics metrics_rest;
  adversary::RandomChurnAdversary adv_rest{
      base.params.tau, adversary::ChurnSchedule::hold(base.n0)};
  const ScenarioResult rest = run_scenario(resumed, adv_rest, metrics_rest);
  EXPECT_EQ(rest.halted_at_step, 0u);
  expect_same_outcome(full, rest);
  std::remove(ckpt.c_str());
}

TEST(TraceTest, HaltAndResumeMatchesUninterruptedAdversaryRun) {
  // The per-step driver with a STATEFUL adversary (the join-leave
  // attacker's victim target survives the checkpoint), plus periodic
  // checkpoints along the way — the resumable-nightly configuration.
  const std::string ckpt = temp_path("now_adversary.ckpt");
  ScenarioConfig base;
  base.params.max_size = 1 << 12;
  base.params.walk_mode = core::WalkMode::kSampleExact;
  base.params.k = 10;
  base.params.tau = 0.10;
  base.n0 = 600;
  base.topology = core::InitTopology::kModeledSparse;
  base.steps = 60;
  base.sample_every = 10;
  base.seed = 53;

  Metrics metrics_full;
  adversary::JoinLeaveAdversary adv_full{
      base.params.tau, adversary::ChurnSchedule::hold(base.n0), 0.25};
  const ScenarioResult full = run_scenario(base, adv_full, metrics_full);

  ScenarioConfig halted = base;
  halted.checkpoint_path = ckpt;
  halted.halt_at = 30;
  Metrics metrics_half;
  adversary::JoinLeaveAdversary adv_half{
      base.params.tau, adversary::ChurnSchedule::hold(base.n0), 0.25};
  const ScenarioResult partial =
      run_scenario(halted, adv_half, metrics_half);
  EXPECT_EQ(partial.halted_at_step, 30u);

  ScenarioConfig resumed = base;
  resumed.resume_from = ckpt;
  Metrics metrics_rest;
  adversary::JoinLeaveAdversary adv_rest{
      base.params.tau, adversary::ChurnSchedule::hold(base.n0), 0.25};
  const ScenarioResult rest = run_scenario(resumed, adv_rest, metrics_rest);
  expect_same_outcome(full, rest);
  std::remove(ckpt.c_str());
}

TEST(TraceTest, CheckpointRejectsMismatchedScenario) {
  const std::string ckpt = temp_path("now_mismatch.ckpt");
  ScenarioConfig halted = batched_config(61);
  halted.checkpoint_path = ckpt;
  halted.halt_at = 10;
  Metrics metrics;
  adversary::RandomChurnAdversary adversary{
      halted.params.tau, adversary::ChurnSchedule::hold(halted.n0)};
  (void)run_scenario(halted, adversary, metrics);

  // Different seed => different trajectory: must be rejected, not resumed.
  ScenarioConfig wrong_seed = batched_config(62);
  wrong_seed.resume_from = ckpt;
  Metrics m2;
  adversary::RandomChurnAdversary a2{
      wrong_seed.params.tau, adversary::ChurnSchedule::hold(wrong_seed.n0)};
  EXPECT_THROW(run_scenario(wrong_seed, a2, m2), core::SnapshotError);

  // Different adversary strategy: its internal state cannot be restored.
  ScenarioConfig wrong_adv = batched_config(61);
  wrong_adv.resume_from = ckpt;
  Metrics m3;
  adversary::ForcedLeaveAdversary a3{wrong_adv.params.tau};
  EXPECT_THROW(run_scenario(wrong_adv, a3, m3), core::SnapshotError);
  std::remove(ckpt.c_str());
}

TEST(CorpusTest, GenerationIsDeterministicInTheMasterSeed) {
  CorpusAxes axes;
  axes.master_seed = 99;
  axes.count = 2;
  axes.min_steps = 20;
  axes.max_steps = 30;
  const std::string dir_a = temp_path("corpus_a");
  const std::string dir_b = temp_path("corpus_b");
  const auto a = generate_corpus(axes, dir_a);
  const auto b = generate_corpus(axes, dir_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].config.seed, b[i].config.seed);
    EXPECT_EQ(a[i].config.n0, b[i].config.n0);
    EXPECT_EQ(a[i].config.steps, b[i].config.steps);
    EXPECT_EQ(a[i].config.batch_ops, b[i].config.batch_ops);
    EXPECT_EQ(a[i].result.peak_byz_fraction, b[i].result.peak_byz_fraction);
    EXPECT_EQ(a[i].failing, b[i].failing);
    // Every generated trace replays green against the same binary.
    const TraceReplayResult replay =
        replay_trace(dir_a + "/" + a[i].trace_file);
    EXPECT_TRUE(replay.ok) << a[i].name << ": " << replay.error;
  }
}

TEST(CorpusTest, ShrinkReducesAFailingScenario) {
  // The no-shuffle deployment under the targeted batched attack is
  // captured systematically — a guaranteed-failing scenario for the
  // shrinker to minimize.
  // Mirrors bench_attack's batched forced-leave row against the
  // no-shuffle baseline (captured within a handful of steps there).
  ScenarioConfig failing;
  failing.params.max_size = 1 << 12;
  failing.params.walk_mode = core::WalkMode::kSampleExact;
  failing.params.k = 10;
  failing.params.tau = 0.15;
  failing.params.shuffle_enabled = false;
  failing.n0 = 900;
  failing.topology = core::InitTopology::kModeledSparse;
  failing.steps = 100;
  failing.sample_every = 5;
  failing.seed = 37;
  failing.batch_ops = 8;
  failing.shards = 2;
  failing.batch_byz_fraction = 0.15;
  failing.batch_placement = BatchPlacement::kTargeted;
  failing.batch_leave_quota = 8;

  const ScenarioResult before = run_corpus_scenario(failing, "");
  ASSERT_TRUE(scenario_failed(failing, before))
      << "the seed scenario must fail for the shrink test to mean anything";

  std::size_t rounds = 0;
  const ScenarioConfig shrunk = shrink_failing_config(failing, &rounds);
  EXPECT_GE(rounds, 1u);
  EXPECT_LE(shrunk.steps, failing.steps);
  EXPECT_LE(shrunk.batch_ops, failing.batch_ops);
  EXPECT_LE(shrunk.n0, failing.n0);
  const ScenarioResult after = run_corpus_scenario(shrunk, "");
  EXPECT_TRUE(scenario_failed(shrunk, after));
}

}  // namespace
}  // namespace now::sim
