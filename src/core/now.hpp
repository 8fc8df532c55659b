// NOW — Neighbors On Watch (Section 3): the paper's primary contribution.
//
// NowSystem owns the cluster partition, the node -> cluster map and the OVER
// overlay, and implements:
//   * the initialization phase (Section 3.2): network discovery + scalable
//     Byzantine agreement electing a representative cluster + random
//     partition + Erdős–Rényi overlay wiring;
//   * the maintenance phase (Section 3.3): Join / Leave (Algorithms 1–2)
//     with node shuffling (exchange), and the induced Split / Merge.
//
// All communication is charged to the injected Metrics sink (messages as
// they happen, rounds once per operation along the critical path — walks
// and per-member swaps inside an exchange run in parallel, so their rounds
// combine by max, not sum).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/paged_index.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/invariants.hpp"
#include "core/params.hpp"
#include "core/rand_cl.hpp"
#include "core/state.hpp"

namespace now::core {

/// Shape of the initial knowledge graph the discovery phase floods over.
enum class InitTopology {
  /// Every node initially knows every other node: the dense worst case,
  /// where discovery costs O(n * e) = O(n^3) = O(N^{3/2}) (Figure 1).
  kComplete,
  /// Every node initially knows polylog(n) random nodes (the situation the
  /// paper's model describes outside initialization).
  kSparseRandom,
  /// Skip the message-level flood and charge its O(n * e) cost analytically
  /// for the sparse topology (e = n * polylog(n) / 2). The flood's outcome
  /// is deterministic — every honest node learns every identity — so large
  /// experiments that only need a working system use this; the Figure-1
  /// bench measures the real flood.
  kModeledSparse,
};

struct InitReport {
  std::size_t n0 = 0;
  std::size_t num_clusters = 0;
  Cost discovery;
  Cost quorum;
  Cost partition;
  Cost total;
  bool discovery_complete = false;
};

/// Outcome of one maintenance operation (join or leave plus everything it
/// induced). Batched steps (step_parallel_mixed) reuse the same report and
/// additionally fill the batch-only fields below.
struct OpReport {
  Cost cost;
  std::size_t splits = 0;
  std::size_t merges = 0;
  std::size_t rejoins = 0;

  /// Batches only: planned swaps dropped at commit — the
  /// cross-shard serialization point. Stale swaps are normally reconciled
  /// (applied at the nodes' *current* homes); a drop happens only when one
  /// of the two nodes left in this batch or both ended up in one cluster.
  std::size_t conflicts = 0;
  /// Batches only: swaps that missed the resolve's planned-slot
  /// fast path (an earlier move of this batch relocated or removed an
  /// endpoint) and were re-resolved at the nodes' then-current homes.
  /// Includes every dropped swap (`conflicts`). Deterministic — identical
  /// for every shard count.
  std::size_t resolve_replays = 0;
  /// Batches only: each shard's planning-phase cost (messages are
  /// exact; rounds are the shard's sequential sum, the batch's round count
  /// below combines per-op rounds by max). Sums to cost - commit_cost.
  std::vector<Cost> shard_costs;
  /// Batches only: protocol cost of the commit phase (the deferred
  /// splits/merges; the membership moves themselves were charged while
  /// planning).
  Cost commit_cost;
  /// Batches only: slots whose stage-1 merged membership outgrew
  /// their slab extent and were re-homed by the sequential stage-2 commit
  /// (MemberSlab::try_apply_edits returned false). Shard-independent — the
  /// spill set depends only on the canonical per-slot edits and the extent
  /// caps. The coverage-guided corpus (sim/corpus.hpp) treats "a spill
  /// happened" as an observed-behavior bit.
  std::size_t stage2_spills = 0;
  /// Batches only: exchange waves the wave scheduler ran this step
  /// (primary waves on clusters touched by an operation, plus the deduped
  /// secondary waves on their leave-wave partners). Each touched cluster
  /// shuffles exactly once per time step, however many batch operations
  /// landed on it.
  std::size_t wave_count = 0;
  // The *_ns fields below are measured by the obs span layer
  // (obs/obs.hpp): each batch phase opens a ScopedSpan that writes its
  // duration here and, when recording is enabled, into the trace ring.
  // With NOW_OBS=OFF they read 0 (telemetry product, not protocol state).
  /// Batches only: wall-clock nanoseconds of the commit phase
  /// (resolve + stage-1 parallel apply + stage-2 merge and restructuring)
  /// — the quantity BENCH_micro.json tracks as commit_ns.
  std::uint64_t commit_ns = 0;
  /// Batches only: wall-clock nanoseconds of the plan phase
  /// (partition + per-op planning + both wave tiers + metrics merge).
  /// plan_ns + commit_ns covers the batch except for trace/setup glue;
  /// resolve/stage1/stage2 below partition commit_ns.
  std::uint64_t plan_ns = 0;
  /// Batches only: wall-clock nanoseconds of the commit's resolve
  /// passes (sequential op edits + swap resolution).
  std::uint64_t resolve_ns = 0;
  /// Batches only: wall-clock nanoseconds of the stage-1 parallel
  /// member-edit apply.
  std::uint64_t stage1_ns = 0;
  /// Batches only: wall-clock nanoseconds of stage 2 (spill
  /// re-homing, Fenwick delta merge, deferred splits/merges, compaction
  /// check and cache maintenance).
  std::uint64_t stage2_ns = 0;
};

/// Opaque per-system batch-engine state (src/core/batch.cpp): the persistent
/// incremental PlanCache, the per-cluster wave caches the wave scheduler
/// reuses across time steps, and the commit engine's scratch buffers.
struct BatchScratch;

class SnapshotReader;
class SnapshotWriter;

/// Observer of the scenario-level events a NowSystem executes — the
/// record half of the trace subsystem (sim/trace.hpp). The sink sees
/// exactly the inputs needed to re-drive an identical trajectory: which
/// operations ran, in which order, with which adversarial choices. All
/// protocol-internal randomness is derived from the system seed, so the
/// event stream plus the seed IS the full trajectory.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// A sequential join completed; `node` is the id it was assigned.
  virtual void on_join(NodeId node, bool byzantine) = 0;
  /// A sequential leave of `node` is about to run.
  virtual void on_leave(NodeId node) = 0;
  /// A step_parallel_mixed batch is about to run with these exact inputs.
  virtual void on_batch(std::size_t joins, std::size_t byzantine_joins,
                        const std::vector<NodeId>& leaves,
                        std::size_t shards) = 0;
};

class NowSystem {
 public:
  NowSystem(const NowParams& params, Metrics& metrics, std::uint64_t seed);
  ~NowSystem();

  NowSystem(const NowSystem&) = delete;
  NowSystem& operator=(const NowSystem&) = delete;

  /// Runs the initialization phase with n0 nodes, of which `byzantine_count`
  /// (chosen uniformly — the static adversary corrupts before any protocol
  /// randomness exists, so a uniform choice is without loss of generality)
  /// are Byzantine. Must be called exactly once.
  InitReport initialize(std::size_t n0, std::size_t byzantine_count,
                        InitTopology topology = InitTopology::kSparseRandom);

  /// Join of a fresh node (Algorithm 1). The adversary decides whether the
  /// joining node is corrupted. Returns the new node's id.
  std::pair<NodeId, OpReport> join(bool byzantine_node);

  /// Leave of `node` (Algorithm 2) — voluntary departure, crash, or
  /// adversarially forced exit; the protocol reacts identically.
  OpReport leave(NodeId node);

  /// Several joins and leaves executed within ONE time step (the paper's
  /// footnote *: "the analysis can be generalized to several parallel join
  /// and leave operations") — the batch engine (DESIGN.md §7). The first
  /// `byzantine_joins` of the `joins` joiners are corrupted, the rest are
  /// honest (the batched join-leave attack corrupts a tau fraction of each
  /// wave of joiners rather than all or none); byzantine_joins must not
  /// exceed joins. Leave targets must be live and distinct. Returns the ids
  /// of the joined nodes plus the combined report.
  ///
  /// Operations are partitioned by home-cluster slot modulo `shards` and
  /// *planned* concurrently on a small thread pool against the frozen
  /// start-of-step state — each operation draws from its own RNG stream
  /// Rng::derive_stream(seed, batch, op) and charges a per-shard Metrics.
  /// Secondary to the operations, a per-step WAVE SCHEDULER collects the
  /// set of clusters the batch touched and runs exactly one full exchange
  /// wave per cluster per time step (the paper's semantics — a cluster
  /// shuffles all of its nodes once), each wave on its own derived stream;
  /// waves induced by a leave additionally schedule one deduplicated
  /// secondary wave per partner cluster. Planning reads the persistent
  /// PlanCache (core/plan_cache.hpp), maintained incrementally across
  /// batches. Commit resolves every planned move sequentially in canonical
  /// order at the nodes' current homes. Stage 1 then applies the
  /// per-cluster member edits shard-parallel against contiguous slot
  /// blocks, and stage 2 merges the per-shard size deltas into the Fenwick
  /// mirror and runs the deferred splits/merges sequentially.
  ///
  /// The operations overlap in time, so the batch's round count is the max
  /// over the operations plus the max over each wave tier plus the
  /// commit's restructuring rounds — not the sum over operations. Because
  /// plans depend only on the snapshot and per-op/per-wave streams, the
  /// wave list is canonical, and the resolve runs in canonical order, the
  /// resulting state is IDENTICAL for every shard count; `shards` (0 is
  /// read as 1) only changes wall-clock.
  std::pair<std::vector<NodeId>, OpReport> step_parallel_mixed(
      std::size_t joins, std::size_t byzantine_joins,
      const std::vector<NodeId>& leaves, std::size_t shards);

  /// randCl from `start` (exposed for tests and benches; charges costs).
  RandClResult rand_cl_from(ClusterId start);

  /// Full-cluster shuffle (Section 3.1 `exchange`); returns its cost and
  /// records the distinct partner clusters in `partners_out` when non-null.
  Cost exchange_all(ClusterId c,
                    std::vector<ClusterId>* partners_out = nullptr);

  [[nodiscard]] const NowState& state() const { return state_; }
  [[nodiscard]] const NowParams& params() const { return params_; }
  [[nodiscard]] std::size_t num_nodes() const { return state_.num_nodes(); }
  [[nodiscard]] std::size_t num_clusters() const {
    return state_.num_clusters();
  }
  [[nodiscard]] bool initialized() const { return initialized_; }

  [[nodiscard]] InvariantReport check() const {
    return check_invariants(state_, params_, params_.shuffle_enabled);
  }

  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Drops the persistent PlanCache; the next batch rebuilds it from
  /// scratch. The cache is maintained incrementally and invalidated
  /// automatically on every structural change (split/merge, sequential
  /// join()/leave()), so this hook exists for tests and benches
  /// that want to time or compare the full-rebuild path.
  void invalidate_plan_cache();

  // ------------------------------------------- snapshots & traces (§8)

  /// Writes a versioned binary snapshot of the full deterministic state
  /// (core/snapshot.hpp). Restore-then-continue is bit-identical to never
  /// having saved, for every shard count.
  void save(const std::string& path) const;

  /// Restores a snapshot into this system, which must be freshly
  /// constructed with the same behavior-relevant NowParams (shard counts
  /// may differ — they never change results). Throws
  /// core::SnapshotError on malformed files, version or parameter
  /// mismatch.
  void load(const std::string& path);

  /// Attaches (or detaches, with nullptr) a scenario-event observer. The
  /// sink outlives every subsequent operation until detached.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

  /// Resident bytes of the deterministic state plus the persistent batch
  /// scratch (capacities, not sizes — what the process actually holds).
  /// Feeds the bytes_per_node scalar BENCH_micro.json records for the
  /// huge-batch tier.
  [[nodiscard]] std::size_t footprint_bytes() const;

  /// Verifies the persistent PlanCache against the live state (column
  /// order, neighborhoods, alias mass per cluster). For the nightly
  /// large-n stress; O(k).
  [[nodiscard]] bool plan_cache_consistent() const;

 private:
  /// Places an existing node into the partition via Algorithm 1 (used by
  /// both fresh joins and post-merge re-joins). Returns rounds consumed.
  std::uint64_t place_node(NodeId node, OpReport& report);

  /// Split of an oversized cluster (Section 3.3). Returns rounds consumed.
  std::uint64_t do_split(ClusterId c, OpReport& report);

  /// Merge/dissolution of an undersized cluster. Returns rounds consumed.
  std::uint64_t do_merge(ClusterId c, OpReport& report);

  /// Overlay sampler adapter: randCl walk on behalf of `requester`,
  /// accumulating the max parallel rounds into *rounds_max.
  over::Overlay::Sampler overlay_sampler(std::uint64_t* rounds_max);

  /// Lazily (re)built pool with at least `shards - 1` workers, capped at
  /// the hardware concurrency. Worker count never affects results.
  ThreadPool& pool_for(std::size_t shards);

  /// Snapshot glue (core/snapshot.cpp reaches the private fields).
  friend void save_system(const NowSystem& system, SnapshotWriter& writer);
  friend void load_system(NowSystem& system, SnapshotReader& reader);

  NowParams params_;
  Metrics& metrics_;
  std::uint64_t seed_;
  Rng rng_;
  NowState state_;
  bool initialized_ = false;
  std::uint64_t batch_counter_ = 0;
  TraceSink* trace_sink_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;

  // Batch-engine state persisting across time steps (see batch.cpp): the
  // incrementally maintained PlanCache, the per-cluster wave caches
  // (each cluster's swap/partner buffers, reused by the wave scheduler
  // across steps) and the per-slot / per-shard edit scratch.
  std::unique_ptr<BatchScratch> batch_;
};

}  // namespace now::core
