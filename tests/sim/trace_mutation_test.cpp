// Mutation-testing the replay verifier (DESIGN.md §10): corrupt ONE
// recorded fact — an event, a sample field, a summary field — and the
// replay must report a divergence at the right step, never silently pass.
// Also the bisection acceptance: an injected divergence in a >= 500-step
// trace is localized with at most ceil(log2(steps / checkpoint_every)) + 2
// checkpoint restores, and mutation re-encodes every untouched byte of the
// checked-in corpus.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/snapshot.hpp"
#include "sim/trace.hpp"

namespace now::sim {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

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

ScenarioResult record_trace(const ScenarioConfig& base,
                            const std::string& path) {
  ScenarioConfig config = base;
  config.trace_path = path;
  Metrics metrics;
  adversary::RandomChurnAdversary adversary{
      config.params.tau, adversary::ChurnSchedule::hold(config.n0)};
  return run_scenario(config, adversary, metrics);
}

TEST(TraceMutationTest, SampleMutationIsDetectedAtExactlyThatStep) {
  const std::string path = temp_path("mut_sample.trace");
  const std::string mutated = temp_path("mut_sample_out.trace");
  (void)record_trace(batched_config(211), path);
  ASSERT_TRUE(replay_trace(path).ok);

  // Pick a mid-run sample (index 3 of the 9 samples at steps 0,5,...,40).
  const TraceMutation m =
      mutate_trace(path, mutated, TraceMutationKind::kSampleField, 3);
  ASSERT_TRUE(m.applied) << m.description;
  EXPECT_EQ(m.step, 15u);

  const TraceReplayResult replay = replay_trace(mutated);
  EXPECT_FALSE(replay.ok);
  EXPECT_EQ(replay.first_bad_step, m.step) << replay.error;
  EXPECT_NE(replay.error.find("invariant sample diverged"),
            std::string::npos)
      << replay.error;
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

TEST(TraceMutationTest, SummaryMutationIsDetectedAtTheEnd) {
  const std::string path = temp_path("mut_summary.trace");
  const std::string mutated = temp_path("mut_summary_out.trace");
  (void)record_trace(batched_config(223), path);

  const TraceMutation m =
      mutate_trace(path, mutated, TraceMutationKind::kSummaryField, 0);
  ASSERT_TRUE(m.applied) << m.description;

  const TraceReplayResult replay = replay_trace(mutated);
  EXPECT_FALSE(replay.ok);
  EXPECT_NE(replay.error.find("summary"), std::string::npos)
      << replay.error;
  EXPECT_EQ(replay.first_bad_step, 40u);
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

TEST(TraceMutationTest, EventMutationIsDetectedAtOrAfterItsStep) {
  const std::string path = temp_path("mut_event.trace");
  const std::string mutated = temp_path("mut_event_out.trace");
  (void)record_trace(batched_config(227), path);

  // Batch frame mid-run: the replayed trajectory forks at the event's
  // step; the next sample or embedded checkpoint must observe it.
  const TraceMutation m =
      mutate_trace(path, mutated, TraceMutationKind::kEventBit, 17);
  ASSERT_TRUE(m.applied) << m.description;
  ASSERT_GT(m.step, 0u);

  const TraceReplayResult replay = replay_trace(mutated);
  EXPECT_FALSE(replay.ok) << "a corrupted event silently replayed";
  EXPECT_GE(replay.first_bad_step, m.step);
  // Detection latency is bounded by the observation cadence: even when
  // the corrupted corruption-bit leaves every sampled aggregate intact,
  // the next embedded checkpoint (every 8 steps here) byte-compares the
  // byzantine set and must catch it.
  EXPECT_LE(replay.first_bad_step, m.step + 8);
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

TEST(TraceMutationTest, NoMutationEverSilentlyPasses) {
  const std::string path = temp_path("mut_sweep.trace");
  const std::string mutated = temp_path("mut_sweep_out.trace");
  (void)record_trace(batched_config(229), path);

  const TraceMutationKind kinds[] = {TraceMutationKind::kEventBit,
                                     TraceMutationKind::kSampleField,
                                     TraceMutationKind::kSummaryField};
  for (const TraceMutationKind kind : kinds) {
    for (std::uint64_t pick = 0; pick < 5; ++pick) {
      const TraceMutation m = mutate_trace(path, mutated, kind, pick * 7);
      ASSERT_TRUE(m.applied);
      const TraceReplayResult replay = replay_trace(mutated);
      EXPECT_FALSE(replay.ok)
          << "mutation passed silently: " << m.description;
    }
  }
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

TEST(TraceMutationTest, BisectLocalizesDivergenceWithLogRestores) {
  // Acceptance: a >= 500-step trace (checkpoint_every = 500 / 8 = 62),
  // one injected event corruption, localized in at most
  // ceil(log2(steps / checkpoint_every)) + 2 checkpoint restores.
  const std::string path = temp_path("bisect_long.trace");
  const std::string mutated = temp_path("bisect_long_out.trace");
  ScenarioConfig config;
  config.params.max_size = 1 << 12;
  config.params.walk_mode = core::WalkMode::kSampleExact;
  config.params.k = 10;
  config.params.tau = 0.10;
  config.n0 = 400;
  config.topology = core::InitTopology::kModeledSparse;
  config.steps = 500;
  config.sample_every = 10;
  config.seed = 233;
  config.batch_ops = 4;
  config.shards = 2;
  config.batch_byz_fraction = 0.10;
  config.batch_placement = BatchPlacement::kTargeted;
  config.batch_leave_quota = 1;
  (void)record_trace(config, path);
  constexpr std::size_t kCheckpointEvery = 500 / 8;

  const auto checkpoints = trace_checkpoints(path);
  ASSERT_EQ(checkpoints.size(), 8u);  // 62, 124, ..., 496

  // A clean trace bisects to "no divergence" with zero restores.
  const TraceBisectResult clean = bisect_trace(path);
  EXPECT_FALSE(clean.diverged) << clean.error;
  EXPECT_EQ(clean.restores, 0u);

  // Inject a mid-trace event corruption (pick 250 of the 500 batch
  // frames lands near step 251).
  const TraceMutation m =
      mutate_trace(path, mutated, TraceMutationKind::kEventBit, 250);
  ASSERT_TRUE(m.applied);
  ASSERT_GT(m.step, 100u);
  ASSERT_LT(m.step, 400u);

  const TraceReplayResult full = replay_trace(mutated);
  ASSERT_FALSE(full.ok);

  const TraceBisectResult bisect = bisect_trace(mutated);
  EXPECT_TRUE(bisect.diverged);
  // Same first observed mismatch as the full replay...
  EXPECT_EQ(bisect.first_bad_step, full.first_bad_step);
  // ...and the fork interval brackets the injected step.
  EXPECT_LT(bisect.fork_lower_bound, m.step);
  EXPECT_LE(m.step, bisect.first_bad_step);
  // The interval is checkpoint-cadence tight.
  EXPECT_LE(bisect.first_bad_step - bisect.fork_lower_bound,
            2 * kCheckpointEvery);

  const auto budget =
      static_cast<std::size_t>(std::ceil(std::log2(
          static_cast<double>(config.steps) / kCheckpointEvery))) +
      2;
  EXPECT_LE(bisect.restores, budget)
      << "bisection used " << bisect.restores << " restores over "
      << bisect.probes << " probes";
  std::remove(path.c_str());
  std::remove(mutated.c_str());
}

TEST(TraceMutationTest, MutationChangesOnlyTheMutatedFieldOfTheCorpus) {
  // mutate_trace decodes the trace, edits one field and re-encodes every
  // frame through the codec. So on every checked-in corpus trace and for
  // every kind, the output payload equals the input everywhere outside
  // that one field (a u64 or a u8 flag: at most 8 bytes).
  const std::string mutated = temp_path("mut_corpus_out.trace");
  const auto payload_of = [](const std::string& path) {
    core::SnapshotReader reader = core::SnapshotReader::read_file(
        path, "NOWTRAC1", kTraceFormatVersion, kTraceFormatVersion);
    std::vector<std::uint8_t> payload(reader.size());
    reader.bytes(payload.data(), payload.size());
    return payload;
  };
  const TraceMutationKind kinds[] = {TraceMutationKind::kEventBit,
                                     TraceMutationKind::kSampleField,
                                     TraceMutationKind::kSummaryField};
  std::size_t traces = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(NOW_SOURCE_DIR) + "/bench/corpus")) {
    if (entry.path().extension() != ".trace") continue;
    ++traces;
    const std::string path = entry.path().string();
    const std::vector<std::uint8_t> original = payload_of(path);
    for (const TraceMutationKind kind : kinds) {
      for (const std::uint64_t pick : {std::uint64_t{0}, std::uint64_t{5}}) {
        const TraceMutation m = mutate_trace(path, mutated, kind, pick);
        ASSERT_TRUE(m.applied) << path;
        const std::vector<std::uint8_t> changed = payload_of(mutated);
        ASSERT_EQ(changed.size(), original.size()) << m.description;
        std::size_t first = original.size();
        std::size_t last = 0;
        for (std::size_t i = 0; i < original.size(); ++i) {
          if (changed[i] != original[i]) {
            first = std::min(first, i);
            last = i;
          }
        }
        ASSERT_LT(first, original.size())
            << path << ": mutation changed nothing: " << m.description;
        EXPECT_LT(last - first, 8u) << path << ": " << m.description;
      }
    }
  }
  EXPECT_EQ(traces, 6u);
  std::remove(mutated.c_str());
}

}  // namespace
}  // namespace now::sim
