// End-to-end scenario runner: initialize a NOW deployment, drive it with an
// adversary for a number of time steps, and sample the Theorem-3 invariants
// along the way. All long-horizon benches and the integration tests are
// built on this.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/metrics.hpp"
#include "core/now.hpp"

namespace now::sim {

/// How the batched adversary (batch_byz_fraction > 0) picks its moves.
enum class BatchPlacement {
  /// Corrupted joiners are placed by the protocol's randCl like everyone
  /// else and the leave victims are uniform — adversarial *volume* without
  /// adversarial placement.
  kUniform,
  /// The batched join-leave attack (Section 3.3 under footnote *'s parallel
  /// operations): each step the adversary targets the cluster with the
  /// highest Byzantine fraction (it sees the whole state), keeps its nodes
  /// that already sit there, and churns its nodes that landed elsewhere —
  /// they leave this step and re-join (corrupted) in the next one. Honest
  /// uniform victims fill the remainder of the leave quota.
  kTargeted,
};

struct ScenarioConfig {
  core::NowParams params;
  std::size_t n0 = 0;          // 0 => sqrt(N)
  double initial_byz_fraction = -1.0;  // < 0 => the adversary's tau
  core::InitTopology topology = core::InitTopology::kSparseRandom;
  std::size_t steps = 1000;
  std::size_t sample_every = 50;
  std::uint64_t seed = 42;

  /// Batched churn mode: when batch_ops > 0 each time step performs
  /// batch_ops joins plus batch_ops leaves through
  /// NowSystem::step_parallel_mixed instead of delegating the step to the
  /// adversary — the high-throughput regime the batch engine exists for.
  /// Size holds constant. Joiners are honest unless batch_byz_fraction > 0.
  /// `shards` is a wall-clock setting only: results are identical for
  /// every value.
  std::size_t batch_ops = 0;
  std::size_t shards = 1;

  /// Batched adversary: fraction of each step's joiners the adversary
  /// corrupts (subject to the global budget tau * n — the static-adversary
  /// rule every strategy obeys), placed per batch_placement. 0 keeps the
  /// historical honest-batch behavior.
  double batch_byz_fraction = 0.0;
  BatchPlacement batch_placement = BatchPlacement::kUniform;

  /// Batched forced-leave DoS quota: up to this many of each step's leave
  /// victims are *forced* by the adversary instead of drawn uniformly —
  /// honest members of the currently worst (highest Byzantine fraction)
  /// cluster first (stripping its honest majority), then members of the
  /// smallest cluster (pushing it toward the merge threshold, the
  /// restructuring-DoS flavor). Capped at batch_ops per step; the
  /// remainder of the quota-less leave slots stays uniform. 0 disables the
  /// attack. Composes with batch_byz_fraction/batch_placement (corrupted
  /// joiners + forced leaves is the paper's combined join-leave + DoS
  /// regime under footnote *'s parallel operations).
  std::size_t batch_leave_quota = 0;

  // ----------------------------- snapshots & traces (DESIGN.md §8)

  /// Checkpoint-and-stop: after exactly this step the full scenario state
  /// (system snapshot + driver RNG + partial result + adversary state) is
  /// saved to checkpoint_path and the partial result returned
  /// (halted_at_step records the stop). 0 disables. The split long-run
  /// mode of bench_thm3_longrun --halt-at / --resume.
  std::size_t halt_at = 0;
  /// Where the halt_at checkpoint is written (required by halt_at).
  std::string checkpoint_path;
  /// Resume from this checkpoint instead of initializing: the run
  /// continues at the saved step + 1 and is bit-identical to the
  /// uninterrupted run from there on, samples included.
  std::string resume_from;
  /// Record a scenario trace (sim/trace.hpp) of every event + invariant
  /// sample to this file. Ignored on resumed runs (a trace must cover the
  /// whole run to be replayable).
  std::string trace_path;
  /// Trace embedded-checkpoint cadence: every this many steps the
  /// recorder embeds a full system snapshot into the trace, giving replay
  /// O(log steps) divergence bisection (trace_checkpoints / bisect_trace).
  /// 0 picks an automatic cadence (~8 checkpoints across the horizon).
  std::size_t trace_checkpoint_every = 0;
};

struct InvariantSample {
  std::size_t step = 0;
  std::size_t num_nodes = 0;
  std::size_t num_clusters = 0;
  std::size_t min_cluster_size = 0;
  std::size_t max_cluster_size = 0;
  double worst_byz_fraction = 0.0;
  std::size_t compromised_clusters = 0;
  std::size_t overlay_max_degree = 0;
  bool overlay_connected = true;

  /// Trace replay and resume tests compare samples bit-exactly.
  friend bool operator==(const InvariantSample&,
                         const InvariantSample&) = default;
};

struct ScenarioResult {
  std::vector<InvariantSample> samples;
  /// Max over the whole run (sampled steps) of max_C p_C.
  double peak_byz_fraction = 0.0;
  /// Any cluster ever at or above 1/3 Byzantine at a sampled step.
  bool ever_compromised = false;
  /// First sampled step at which a compromise was observed (or SIZE_MAX).
  std::size_t first_compromise_step = static_cast<std::size_t>(-1);
  std::size_t total_splits = 0;
  std::size_t total_merges = 0;
  std::size_t final_nodes = 0;
  std::size_t final_clusters = 0;
  /// Byzantine nodes alive at the end — lets callers check the static
  /// adversary's budget (<= tau * n) actually held, batched mode included.
  std::size_t final_byzantine = 0;
  /// Batched forced-leave accounting: total victims the adversary forced
  /// out across the run, and the largest number forced in any single step
  /// (callers assert it never exceeds batch_leave_quota).
  std::size_t total_forced_leaves = 0;
  std::size_t max_step_forced_leaves = 0;
  /// When ScenarioConfig::halt_at fired, the step the run checkpointed and
  /// stopped at; 0 means the run completed its full horizon.
  std::size_t halted_at_step = 0;

  // Observed-behavior counters feeding the coverage-guided corpus's
  // signature bits (sim/corpus.hpp). Deliberately NOT part of the trace
  // summary frame (sim/trace.cpp write_summary) — they describe which
  // engine paths a run exercised, not the trajectory itself, and adding
  // them there would break the frozen summary layout.
  /// Swaps that missed the resolve's planned-slot fast path
  /// (OpReport::resolve_replays), summed over the run's batches.
  std::size_t total_resolve_replays = 0;
  /// Stage-1 slots spilled to the sequential stage-2 commit, summed over
  /// the run's batches.
  std::size_t total_stage2_spills = 0;
  /// Membership-slab compactions triggered during the run.
  std::size_t total_compactions = 0;
  /// Steps where the static adversary's global budget tau * n clipped the
  /// requested batch_byz_fraction corruption volume.
  std::size_t budget_saturated_steps = 0;
};

/// Runs the scenario. The same Metrics records every operation, so callers
/// can mine per-operation cost distributions afterwards
/// (metrics.operation_samples(metrics.find("join")) etc.).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config,
                                          adversary::Adversary& adversary,
                                          Metrics& metrics);

/// Writes the invariant samples as CSV (one row per sample) for external
/// plotting.
void write_samples_csv(const ScenarioResult& result, std::ostream& os);

}  // namespace now::sim
