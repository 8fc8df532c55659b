// Scenario record & replay (DESIGN.md §8, §10).
//
// A trace is a compact framed binary file capturing everything an
// adversary (or the batched scenario driver) DID to a deployment: every
// join (with its corruption bit), every leave victim, every batched step's
// exact inputs, the step boundaries, and the invariant samples the run
// observed. All protocol-internal randomness derives from the recorded
// seed, so the event stream plus the header IS the full trajectory:
// replaying the events against a fresh system reproduces every membership
// move bit-exactly, and the recorded invariant samples double as a
// self-check — replay fails loudly on the first field that differs.
//
// This is the evaluation methodology of the dynamic-BRB line of work
// (replaying adversarial schedules against evolving memberships), applied
// to NOW: a failing adversarial scenario no longer evaporates with the
// process that found it — its trace is a portable, shrinkable, CI-gated
// reproducer (sim/corpus.hpp, bench/corpus/).
//
// Traces are SEEKABLE (DESIGN.md §10): the recorder embeds periodic full
// system snapshots (core/snapshot.hpp save_system payloads) as
// length-prefixed checkpoint frames. Readers find them by walking the
// frames, skipping each snapshot by its length, so replay can restore any
// checkpoint and continue from there bit-identically. Full replays
// byte-compare the live state against every embedded snapshot — each
// checkpoint is an extra observation point between samples — and
// bisect_trace binary-searches the checkpoints to localize a divergence
// with O(log steps) restores instead of an O(steps) replay per hypothesis.
//
// One frame codec (trace.cpp) encodes and decodes every frame kind for
// the recorder, replay, the checkpoint listing, info and mutation.
//
// The same file also defines the scenario CHECKPOINT format — the system
// snapshot (core/snapshot.hpp) wrapped with the scenario driver's own
// state (driver RNG, accumulated samples, adversary state) — which backs
// ScenarioConfig::{halt_at, resume_from} and the split long-run of
// bench_thm3_longrun.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/now.hpp"
#include "core/snapshot.hpp"
#include "sim/scenario.hpp"

namespace now::sim {

// Version rules (DESIGN.md §10): the reader accepts exactly
// kTraceFormatVersion, which the writer always emits; a file of any other
// version fails with core::SnapshotError at the version check, never as a
// replay divergence. Traces and scenario checkpoints embed save_system
// payloads, so any change to that payload bumps both versions.
//   trace v1 — header + event/sample/summary frames;
//   trace v2 — checkpoint frames + footer index;
//   trace v3 — embedded snapshots are snapshot v3 (no PlanCache blob);
//   trace v4 — no footer index (checkpoints are found by walking the
//              frames) and no per-batch shard word (the header's counts).
// Scenario checkpoints also embed the adversary's save_state words:
//   checkpoint v4 — the thrash adversary saves its phase flag only.
inline constexpr std::uint32_t kTraceFormatVersion = 4;
inline constexpr std::uint32_t kCheckpointFormatVersion = 4;

/// Records a scenario into an in-memory trace; run_scenario drives it
/// (attach as the system's TraceSink, call begin_step/record_sample/
/// record_checkpoint, then finish). A pure writer except for
/// record_checkpoint, which serializes the system it is handed.
class TraceRecorder final : public core::TraceSink {
 public:
  /// `n0` / `byz0` are the RESOLVED initialization inputs (after the
  /// sqrt(N) and tau defaults were applied).
  TraceRecorder(const ScenarioConfig& config, std::size_t n0,
                std::size_t byz0, std::string adversary_name);

  void on_join(NodeId node, bool byzantine) override;
  void on_leave(NodeId node) override;
  void on_batch(std::size_t joins, std::size_t byzantine_joins,
                const std::vector<NodeId>& leaves) override;

  void begin_step(std::size_t t);
  void record_sample(const InvariantSample& sample);

  /// Embeds a checkpoint frame: full system snapshot plus the run's
  /// partial aggregates (split/merge totals so far, peak fraction,
  /// compromise state), so a replay seeked here reproduces the end
  /// summary exactly. Call at a step boundary, after the step's sample
  /// (if any) was recorded.
  void record_checkpoint(std::size_t step, const core::NowSystem& system,
                         std::size_t splits_so_far,
                         std::size_t merges_so_far,
                         const ScenarioResult& partial);

  /// Appends the end-of-run summary and writes the framed file.
  void finish(const ScenarioResult& result, const std::string& path);

 private:
  core::SnapshotWriter writer_;
};

/// Sentinel for ReplayOptions::start_checkpoint: replay from scratch
/// (initialize a fresh deployment) instead of restoring a checkpoint.
inline constexpr std::size_t kReplayFromStart = static_cast<std::size_t>(-1);

/// Knobs for replay_trace. The defaults reproduce the recorded run
/// exactly; every knob preserves bit-identity of the trajectory (the shard
/// count is an equivalence axis of the engine, and seeking restores
/// recorded state verbatim).
struct ReplayOptions {
  /// 0 = run every batch with the header's shard count; otherwise with
  /// this count (the replay-level shard equivalence check).
  std::size_t shards_override = 0;
  /// Index into trace_checkpoints() to restore and continue from;
  /// kReplayFromStart replays the whole trace.
  std::size_t start_checkpoint = kReplayFromStart;
};

/// Outcome of replaying one trace.
struct TraceReplayResult {
  bool ok = true;
  /// First mismatch (empty when ok): which frame diverged and how.
  std::string error;
  /// Step of the first observed mismatch (SIZE_MAX when ok). Divergence
  /// is observable at sample frames, checkpoint frames and the end
  /// summary, so this is the first OBSERVATION of the fork, at the
  /// trace's sample/checkpoint granularity.
  std::size_t first_bad_step = static_cast<std::size_t>(-1);
  /// Step the replay started at (0 = from scratch, else the restored
  /// checkpoint's step).
  std::size_t start_step = 0;
  std::size_t steps_replayed = 0;
  std::size_t samples_checked = 0;
  /// Embedded checkpoint snapshots byte-verified against live state.
  std::size_t checkpoints_checked = 0;
  /// The scenario outcome RECONSTRUCTED from the replayed run (samples,
  /// peak fraction, compromise step, final counts) — callers report
  /// verdicts from this exactly as they would from run_scenario. On a
  /// seeked replay, `samples` holds only the post-seek tail; aggregates
  /// are seeded from the restored checkpoint and cover the whole run.
  ScenarioResult result;
};

/// Re-drives a deployment from the trace and verifies every recorded
/// invariant sample, every embedded checkpoint snapshot (byte-exact)
/// and the end-of-run summary. Throws core::SnapshotError on malformed
/// files (a bad header, truncation, an unknown frame tag, a checkpoint
/// snapshot running past the payload, non-increasing checkpoint steps,
/// a batch frame with more joins than the header's batch_ops or a
/// repeated leave victim) before it replays anything;
/// event/sample divergence is reported through the result instead (it
/// means behavior drifted, not that the file is damaged).
[[nodiscard]] TraceReplayResult replay_trace(const std::string& path,
                                             const ReplayOptions& opts = {});

/// One embedded checkpoint of a trace.
struct TraceCheckpointInfo {
  std::size_t step = 0;
};

/// The trace's embedded checkpoints in step order, found by walking the
/// frames. Throws core::SnapshotError on a malformed trace.
[[nodiscard]] std::vector<TraceCheckpointInfo> trace_checkpoints(
    const std::string& path);

/// Header-level facts about a trace (the `now_trace info` listing and the
/// corpus manifest machinery).
struct TraceInfo {
  std::uint32_t version = 0;
  /// The recorded params; params.tau, the adversary budget, is enough to
  /// re-classify a replayed trajectory's failure kind without the
  /// original ScenarioConfig.
  core::NowParams params;
  std::uint64_t seed = 0;
  std::size_t steps = 0;
  std::size_t sample_every = 0;
  std::size_t n0 = 0;
  std::size_t byz0 = 0;
  std::size_t batch_ops = 0;
  std::size_t shards = 0;
  double batch_byz_fraction = 0.0;
  BatchPlacement placement = BatchPlacement::kUniform;
  std::size_t leave_quota = 0;
  std::string adversary;
  std::size_t checkpoint_count = 0;
};
[[nodiscard]] TraceInfo trace_info(const std::string& path);

/// Outcome of bisecting a diverging trace.
struct TraceBisectResult {
  bool diverged = false;
  /// First observed mismatch step (== the full replay's first_bad_step).
  std::size_t first_bad_step = static_cast<std::size_t>(-1);
  /// Step of the checkpoint the last FAILING probe restored (0 when the
  /// from-scratch replay is that probe — the divergence precedes the
  /// first checkpoint). The fork lies in (fork_lower_bound,
  /// first_bad_step].
  std::size_t fork_lower_bound = 0;
  /// Checkpoint restores performed — the bisection's cost metric. At most
  /// ceil(log2(#checkpoints + 1)): one restore per binary-search probe
  /// (the anchoring from-scratch probe restores nothing).
  std::size_t restores = 0;
  std::size_t probes = 0;
  /// The failing probe's mismatch message (empty when !diverged).
  std::string error;
};

/// Localizes a divergence: one from-scratch replay anchors the failure,
/// then a binary search over the checkpoints finds the last
/// checkpoint that still replays clean — monotone because every clean
/// probe byte-verifies the later embedded snapshots, pinning the suffix
/// to the recorded trajectory. O(log steps) checkpoint restores total.
[[nodiscard]] TraceBisectResult bisect_trace(const std::string& path);

/// Fault-injection for the replay verifier (the mutation tests): each
/// kind corrupts ONE recorded fact — the trace is decoded, one field
/// edited and every frame re-encoded with a valid checksum — and replay
/// must report a divergence, never silently pass.
enum class TraceMutationKind {
  /// Flip a recorded event: a join's corruption bit, or a batch frame's
  /// byzantine-join count (within bounds). The replayed trajectory forks
  /// at the event's step; detection happens at the next sample or
  /// checkpoint frame.
  kEventBit,
  /// Bump one field of a recorded invariant sample; detection is exact
  /// at that sample's step.
  kSampleField,
  /// Bump one field of the end-of-run summary; detection at the final
  /// step.
  kSummaryField,
};

struct TraceMutation {
  bool applied = false;
  /// Step of the mutated frame (the earliest step a replay may detect
  /// the fault at).
  std::size_t step = 0;
  std::string description;
};

/// Writes a mutated copy of `path` to `out_path` (valid framing, corrupt
/// content). `pick` selects deterministically among the eligible frames.
/// Returns applied = false when the trace has no frame of that kind.
TraceMutation mutate_trace(const std::string& path,
                           const std::string& out_path,
                           TraceMutationKind kind, std::uint64_t pick);

/// One-line human summary of trace_info (the `now_trace info` listing and
/// the corpus manifest).
[[nodiscard]] std::string describe_trace(const std::string& path);

// ----------------------------------------------------------- checkpoints

/// Saves the full scenario state: config fingerprint, current step,
/// driver RNG, the partial result (samples so far + aggregates), the
/// split/merge counts attributed to the run so far, the adversary's
/// internal state, and the embedded system snapshot.
void save_scenario_checkpoint(const ScenarioConfig& config,
                              const adversary::Adversary& adversary,
                              const core::NowSystem& system,
                              const Rng& driver_rng,
                              const ScenarioResult& partial,
                              std::size_t step, std::size_t splits_so_far,
                              std::size_t merges_so_far,
                              const std::string& path);

struct ScenarioResume {
  std::size_t step = 0;
  std::size_t splits_so_far = 0;
  std::size_t merges_so_far = 0;
};

/// Restores a checkpoint into a freshly constructed system + the caller's
/// driver RNG / result accumulators, returning the step to resume after.
/// Throws core::SnapshotError on malformed files or config mismatch.
ScenarioResume load_scenario_checkpoint(const ScenarioConfig& config,
                                        adversary::Adversary& adversary,
                                        core::NowSystem& system,
                                        Rng& driver_rng,
                                        ScenarioResult& partial,
                                        const std::string& path);

}  // namespace now::sim
