// Seekable traces (DESIGN.md §10): embedded checkpoints found by walking
// the frames + seekable replay. Covers the checkpoint cadence,
// seek-restore-continue bit-identity against the full replay (across shard
// counts), the rejection of previous format versions, and the
// malformed-checkpoint-frame rejection paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
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

/// Batched adversarial scenario exercising every frame type.
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

// --- raw-file surgery helpers (craft malformed-but-checksummed files) ---

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

void write_u64_le(std::vector<std::uint8_t>& buf, std::size_t off,
                  std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    buf[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// File layout: magic(8) + version(4) + payload + fnv1a64(payload)(8).
constexpr std::size_t kFilePrefix = 12;

/// Applies `edit` to the payload and re-stamps a VALID checksum, so the
/// mutated file passes framing and fails only at the targeted validation.
void corrupt_payload(const std::string& path,
                     const std::function<void(std::vector<std::uint8_t>&,
                                              std::size_t)>& edit) {
  std::vector<std::uint8_t> file = read_file_bytes(path);
  ASSERT_GT(file.size(), kFilePrefix + 8);
  const std::size_t payload_size = file.size() - kFilePrefix - 8;
  std::vector<std::uint8_t> payload(file.begin() + kFilePrefix,
                                    file.begin() + kFilePrefix +
                                        static_cast<std::ptrdiff_t>(
                                            payload_size));
  edit(payload, payload_size);
  std::copy(payload.begin(), payload.end(), file.begin() + kFilePrefix);
  write_u64_le(file, kFilePrefix + payload_size,
               core::fnv1a64(payload.data(), payload.size()));
  write_file_bytes(path, file);
}

TEST(TraceSeekTest, RecorderEmbedsCheckpointsEveryEighthOfTheHorizon) {
  const std::string path = temp_path("seek_cadence.trace");
  ScenarioConfig config = batched_config(101);
  config.steps = 96;  // cadence max(8, 96 / 8) = 12
  (void)record_trace(config, path);

  const TraceInfo info = trace_info(path);
  EXPECT_EQ(info.version, kTraceFormatVersion);
  EXPECT_EQ(info.steps, config.steps);
  EXPECT_EQ(info.params.tau, config.params.tau);

  // Checkpoints at 12, 24, ..., 84 — never at the final step (the end
  // summary already covers it).
  const auto checkpoints = trace_checkpoints(path);
  ASSERT_EQ(checkpoints.size(), 7u);
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    EXPECT_EQ(checkpoints[i].step, 12 * (i + 1)) << "checkpoint " << i;
  }
  EXPECT_EQ(info.checkpoint_count, 7u);

  // The full replay byte-verifies each embedded snapshot.
  const TraceReplayResult replay = replay_trace(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.checkpoints_checked, 7u);
  std::remove(path.c_str());
}

TEST(TraceSeekTest, AutoCadenceTargetsAboutEightCheckpoints) {
  const std::string path = temp_path("seek_auto.trace");
  (void)record_trace(batched_config(103), path);  // steps=40, cadence 8
  const auto checkpoints = trace_checkpoints(path);
  ASSERT_EQ(checkpoints.size(), 4u);  // 8, 16, 24, 32
  EXPECT_EQ(checkpoints.front().step, 8u);
  EXPECT_EQ(checkpoints.back().step, 32u);
  std::remove(path.c_str());
}

TEST(TraceSeekTest, SeekRestoreContinueMatchesFullReplay) {
  const std::string path = temp_path("seek_continue.trace");
  (void)record_trace(batched_config(107), path);

  const TraceReplayResult full = replay_trace(path);
  ASSERT_TRUE(full.ok) << full.error;

  const auto checkpoints = trace_checkpoints(path);
  ASSERT_EQ(checkpoints.size(), 4u);  // 8, 16, 24, 32
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    ReplayOptions opts;
    opts.start_checkpoint = i;
    const TraceReplayResult seek = replay_trace(path, opts);
    ASSERT_TRUE(seek.ok) << "seek from checkpoint " << i << ": "
                         << seek.error;
    EXPECT_EQ(seek.start_step, checkpoints[i].step);
    // Later embedded checkpoints are still byte-verified.
    EXPECT_EQ(seek.checkpoints_checked, checkpoints.size() - 1 - i);
    // The whole-run aggregates come out identical to the full replay —
    // the seeded partials plus the replayed tail.
    EXPECT_EQ(seek.result.peak_byz_fraction, full.result.peak_byz_fraction);
    EXPECT_EQ(seek.result.ever_compromised, full.result.ever_compromised);
    EXPECT_EQ(seek.result.total_splits, full.result.total_splits);
    EXPECT_EQ(seek.result.total_merges, full.result.total_merges);
    EXPECT_EQ(seek.result.final_nodes, full.result.final_nodes);
    EXPECT_EQ(seek.result.final_clusters, full.result.final_clusters);
    EXPECT_EQ(seek.result.final_byzantine, full.result.final_byzantine);
    // The replayed tail samples are bit-identical to the full replay's.
    ASSERT_LE(seek.result.samples.size(), full.result.samples.size());
    const std::size_t skip =
        full.result.samples.size() - seek.result.samples.size();
    for (std::size_t j = 0; j < seek.result.samples.size(); ++j) {
      EXPECT_EQ(seek.result.samples[j], full.result.samples[skip + j])
          << "checkpoint " << i << " tail sample " << j;
    }
  }
  std::remove(path.c_str());
}

TEST(TraceSeekTest, SeekIsBitIdenticalAcrossShards) {
  const std::string path = temp_path("seek_equiv.trace");
  (void)record_trace(batched_config(109), path);

  const TraceReplayResult full = replay_trace(path);
  ASSERT_TRUE(full.ok) << full.error;

  const std::size_t shard_axis[] = {1, 4, 8};
  for (const std::size_t shards : shard_axis) {
    ReplayOptions opts;
    opts.start_checkpoint = 1;  // mid-trace restore
    opts.shards_override = shards;
    const TraceReplayResult seek = replay_trace(path, opts);
    ASSERT_TRUE(seek.ok) << "shards=" << shards << ": " << seek.error;
    // Replay compares every sample and later checkpoint bit-exactly, so
    // ok already proves equivalence; the finals double-check it.
    EXPECT_EQ(seek.result.final_nodes, full.result.final_nodes);
    EXPECT_EQ(seek.result.final_byzantine, full.result.final_byzantine);
    EXPECT_EQ(seek.result.peak_byz_fraction, full.result.peak_byz_fraction);
  }
  std::remove(path.c_str());
}

TEST(TraceSeekTest, PreviousFormatVersionFailsAtTheVersionCheck) {
  // A v3 trace is intact and checksummed, but its footer and batch shard
  // words are gone from v4: replaying it must fail as an unsupported
  // version, not report the format change as a behavior divergence.
  const std::string path = temp_path("seek_v3.trace");
  (void)record_trace(batched_config(151), path);
  core::SnapshotReader current = core::SnapshotReader::read_file(
      path, "NOWTRAC1", kTraceFormatVersion, kTraceFormatVersion);
  std::vector<std::uint8_t> payload(current.size());
  current.bytes(payload.data(), payload.size());
  core::SnapshotWriter restamped;
  restamped.bytes(payload.data(), payload.size());
  restamped.write_file(path, "NOWTRAC1", 3);

  const auto expect_version_error = [&](const auto& read) {
    try {
      read();
      ADD_FAILURE() << "a v3 trace was read";
    } catch (const core::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported format version 3"),
                std::string::npos)
          << e.what();
    }
  };
  expect_version_error([&] { (void)replay_trace(path); });
  expect_version_error([&] { (void)trace_info(path); });
  expect_version_error([&] { (void)trace_checkpoints(path); });
  std::remove(path.c_str());
}

TEST(TraceSeekTest, MalformedCheckpointFramesAreRejectedNotMisparsed) {
  // Checkpoints are found by walking the frames, so a checkpoint frame
  // whose snapshot length runs past the payload, or whose step does not
  // increase, must throw from every reader instead of being misparsed.
  const std::string path = temp_path("seek_malformed.trace");
  const ScenarioConfig config = batched_config(131);
  const ScenarioResult partial;  // aggregates: zero splits/merges/peak
  // Records two batch steps, each followed by a checkpoint stamped with
  // the given step.
  const auto record = [&](std::size_t first_step, std::size_t second_step) {
    Metrics metrics;
    core::NowSystem system{config.params, metrics, config.seed};
    system.initialize(config.n0, 80, config.topology);
    TraceRecorder recorder{config, config.n0, 80, "manual"};
    system.set_trace_sink(&recorder);
    Rng driver{config.seed};
    for (const std::size_t step : {first_step, second_step}) {
      recorder.begin_step(step);
      system.step_parallel_mixed(
          2, 0, system.state().sample_distinct_nodes(driver, 2), 2);
      recorder.record_checkpoint(step, system, 0, 0, partial);
    }
    system.set_trace_sink(nullptr);
    recorder.finish(partial, path);
  };

  // Well-formed: both checkpoints are listed and replay reads the file.
  record(1, 2);
  ASSERT_EQ(trace_checkpoints(path).size(), 2u);
  EXPECT_NO_THROW((void)replay_trace(path));
  const std::vector<std::uint8_t> pristine = read_file_bytes(path);

  // A repeated or decreasing checkpoint step.
  for (const std::size_t second_step : {2UL, 1UL}) {
    record(2, second_step);
    EXPECT_THROW((void)trace_checkpoints(path), core::SnapshotError)
        << "steps 2, " << second_step;
    EXPECT_THROW((void)replay_trace(path), core::SnapshotError)
        << "steps 2, " << second_step;
  }

  // The first checkpoint's snapshot length, bumped past the payload. The
  // frame is tag 7, then step, splits, merges, peak, ever-compromised and
  // first-compromise step, then the length.
  core::SnapshotWriter prefix;
  prefix.u8(7);
  prefix.u64(1);
  prefix.u64(0);
  prefix.u64(0);
  prefix.f64(partial.peak_byz_fraction);
  prefix.u8(0);
  prefix.u64(partial.first_compromise_step);
  write_file_bytes(path, pristine);
  corrupt_payload(path, [&](std::vector<std::uint8_t>& payload,
                            std::size_t size) {
    const auto frame = std::search(payload.begin(), payload.end(),
                                   prefix.buffer().begin(),
                                   prefix.buffer().end());
    ASSERT_NE(frame, payload.end());
    const auto length_at = static_cast<std::size_t>(frame - payload.begin()) +
                           prefix.buffer().size();
    write_u64_le(payload, length_at, size);
  });
  EXPECT_THROW((void)trace_checkpoints(path), core::SnapshotError);
  EXPECT_THROW((void)replay_trace(path), core::SnapshotError);
  EXPECT_THROW((void)trace_info(path), core::SnapshotError);

  // Plain truncation dies at the checksum gate.
  std::vector<std::uint8_t> truncated = pristine;
  truncated.resize(truncated.size() - 20);
  write_file_bytes(path, truncated);
  EXPECT_THROW((void)replay_trace(path), core::SnapshotError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace now::sim
