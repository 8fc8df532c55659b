// The batch engine (DESIGN.md §7): several joins and leaves within ONE
// time step, the paper's footnote * ("the analysis can be generalized to
// several parallel join and leave operations").
//
// Every batch splits into a PLAN phase (random decisions + cost accounting
// against the frozen start-of-step state; runs concurrently, one shard per
// thread, each operation and each exchange wave on its own derived RNG
// stream) and a COMMIT phase. The commit's sequential resolve decides every
// membership move in canonical order by writing node homes only, and lists
// each node a swap moved off its snapshot home. Member extents are sorted
// sets, so the committed membership depends only on each moved node's
// snapshot slot and final home: stage 1 derives one remove and one add per
// net move from that list (plus the batch's own joins and leaves) and
// applies them per cluster shard-parallel; stage 2 merges size deltas and
// runs the deferred splits/merges sequentially. Plans never touch NowState
// non-const — everything they decide is recorded in BatchScratch. Clusters
// are addressed by slot throughout; the snapshot aggregates live in the
// PlanCache (core/plan_cache.hpp), built at every batch start.
#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/intercluster.hpp"
#include "cluster/rand_num.hpp"
#include "core/now.hpp"
#include "core/plan_cache.hpp"
#include "obs/obs.hpp"

namespace now::core {

namespace {

/// One exchange swap decided during planning: x (member of the wave's
/// cluster) trades places with y (member of the partner). from_slot and
/// to_slot are x's and y's snapshot homes, by cluster slot, so the resolve
/// compares homes without paged slot lookups.
struct PendingSwap {
  NodeId x;
  NodeId y;
  std::uint32_t from_slot = 0;
  std::uint32_t to_slot = 0;
};

/// A node a committed swap moved off its snapshot home, with that home's
/// slot. A node is listed again only if it came back to its snapshot home
/// and left again; every copy yields the same net move.
struct MovedNode {
  NodeId node;
  std::uint32_t snapshot_slot = 0;
};

/// One stage-1 membership edit, addressed to its cluster slot.
struct SlotEdit {
  NodeId node;
  std::uint32_t slot = 0;
  bool add = false;
};

/// One stage-1 apply worker's buffers (capacities persist): the slots of
/// its block that received edits, in first-seen order; their edited nodes
/// grouped by slot, each slot's removes, then its adds; apply_member_edits'
/// merge and spill buffers; and the signed size delta of each slot whose
/// size changed.
struct ApplyWorkspace {
  std::vector<std::uint32_t> slots;
  std::vector<NodeId> grouped;
  NowState::EditScratch edits;
  std::vector<std::pair<std::size_t, std::int64_t>> deltas;
};

/// A slot's stage-1 grouping cursors (counting sort): the end of its
/// removes and the end of its adds within ApplyWorkspace::grouped, valid
/// when `epoch` is the batch's slot epoch.
struct SlotGroup {
  std::uint64_t epoch = 0;
  std::uint32_t removes_end = 0;
  std::uint32_t adds_end = 0;
};

/// One scheduled exchange wave (DESIGN.md §7): the cluster in `slot`
/// shuffles all of its snapshot members once this time step, however many
/// batch operations touched it. Waves are collected in canonical order
/// (first touch by operation order; secondaries in partner order of their
/// primary), and wave w draws from stream total_ops + w, so the committed
/// state is independent of the shard count.
struct PlannedWave {
  std::uint32_t slot = 0;
  /// A leave touched this cluster, so its partners get secondary waves.
  bool from_leave = false;
  std::uint64_t rounds = 0;
};

/// A cluster's wave buffers, persisting across time steps (keyed by slot):
/// steady-state churn shuffles the same clusters again and again, so the
/// swap/partner capacities from earlier steps are reused instead of
/// reallocated per wave.
struct ClusterWaveCache {
  std::vector<PendingSwap> swaps;
  /// Distinct partner slots, in first-draw order.
  std::vector<std::uint32_t> partners;
};

/// Per-shard wave-planning workspace: epoch-stamped partner dedup (O(1)
/// per draw instead of a linear scan of the wave's partner list).
struct WaveWorkspace {
  std::vector<std::uint32_t> partner_epoch;  // by slot
  std::uint32_t epoch = 0;
};

constexpr std::size_t kNoWave = static_cast<std::size_t>(-1);

/// How many elements ahead the swap home chain and stage 1's emit pass
/// prefetch node_home lines: each element's work is a few loads, too
/// short to hide one paged lookup's latency.
constexpr std::size_t kHomePrefetchDistance = 8;

}  // namespace

/// Batch-engine state persisting across time steps (owned by NowSystem
/// through a unique_ptr; the header only forward-declares it). Everything
/// here is scratch whose *capacity* survives batches (the PlanCache, the
/// per-cluster wave buffers, the moved list, the stage-1 edit buffers,
/// per-shard workspaces), so steady-state batches allocate little.
/// Per-slot scratch is epoch-stamped
/// (DESIGN.md §11): `slot_epoch` bumps once per batch, every write stamps
/// it, and a read whose stamp is stale sees "untouched" — no per-batch
/// reset sweep is ever needed, for any slot count.
struct BatchScratch {
  /// Snapshot aggregates, built at every batch start (core/plan_cache.hpp).
  PlanCache cache;

  /// Per-cluster wave buffers, by slot, reused across steps.
  std::vector<ClusterWaveCache> wave_cache;
  /// Per-shard wave-planning workspaces.
  std::vector<WaveWorkspace> wave_ws;
  /// This step's waves: the primaries [0, primary_count), then the
  /// secondaries.
  std::vector<PlannedWave> waves;
  std::size_t primary_count = 0;

  /// Struct-of-arrays op plan, one entry per batch operation in canonical
  /// order (joins first, then leaves): kind, node, target slot (walk
  /// result / leave home) and the op's critical path. The plan,
  /// wave-collection and resolve passes stream these flat arrays instead
  /// of hopping per-op structs.
  std::vector<std::uint8_t> op_is_join;
  std::vector<NodeId> op_node;
  std::vector<std::uint32_t> op_slot;
  std::vector<std::uint64_t> op_rounds;
  /// Bulk-derived RNG streams (Rng::derive_streams): one per op and one
  /// per wave, reusing the same buffers every batch.
  std::vector<Rng> op_rng;
  std::vector<Rng> wave_rng;
  /// Per-shard op-index assignment (rebuilt per batch, capacities kept).
  std::vector<std::vector<std::size_t>> assignment;

  /// Batch epoch for the per-slot scratch below. Starts at 1 so the
  /// zero-initialized epoch arrays read as "never touched".
  std::uint64_t slot_epoch = 0;

  /// Batch leavers grouped by home slot; `leavers_by_slot[slot]` is only
  /// meaningful when `leaver_epoch_of_slot[slot] == slot_epoch` (read it
  /// through leavers_of()).
  std::vector<std::vector<NodeId>> leavers_by_slot;
  std::vector<std::uint64_t> leaver_epoch_of_slot;
  /// Wave index per touched slot, epoch-stamped (read through wave_of()).
  std::vector<std::size_t> wave_of_slot;
  std::vector<std::uint64_t> wave_epoch_of_slot;
  /// First-touch dedup for the restructuring-candidate list (a live
  /// cluster's slot is as unique as its id within a batch).
  std::vector<std::uint64_t> candidate_epoch_of_slot;

  /// The resolve's output: every node a committed swap moved off its
  /// snapshot home, in resolve order (stage 1 reads it in 1/K chunks).
  std::vector<MovedNode> moved;
  /// Stage-1 edit buffers, K x K flattened: emitted[s * K + b] holds what
  /// emit worker s produced for the slots of block b. Capacities persist
  /// for the largest K seen.
  std::vector<std::vector<SlotEdit>> emitted;
  /// Per-shard stage-1 apply workspaces.
  std::vector<ApplyWorkspace> apply_workspaces;
  /// Stage-1 grouping cursors by slot, epoch-stamped (written only by the
  /// slot's block owner).
  std::vector<SlotGroup> group_of_slot;

  // Commit-phase scratch, kept so steady-state batches stay
  // allocation-free (capacities persist).
  std::vector<ClusterId> candidates;
  std::vector<std::pair<std::size_t, std::int64_t>> all_deltas;
  std::vector<std::pair<std::size_t, const std::vector<NodeId>*>> spilled;

  /// Grows every per-slot scratch array to `slot_count` entries, with
  /// geometric over-allocation so total growth work stays amortized O(1)
  /// per batch (the arrays never shrink; epoch stamps make stale content
  /// invisible).
  void ensure_slot_capacity(std::size_t slot_count) {
    if (leavers_by_slot.size() >= slot_count) return;
    const std::size_t grown =
        std::max(slot_count, 2 * leavers_by_slot.size());
    leavers_by_slot.resize(grown);
    leaver_epoch_of_slot.resize(grown, 0);
    wave_of_slot.resize(grown, 0);
    wave_epoch_of_slot.resize(grown, 0);
    candidate_epoch_of_slot.resize(grown, 0);
    wave_cache.resize(grown);
    group_of_slot.resize(grown);
  }

  /// This batch's leavers homed at `slot` (empty when the slot was not
  /// touched this batch — stale buffer content is invisible).
  [[nodiscard]] std::span<const NodeId> leavers_of(std::size_t slot) const {
    if (leaver_epoch_of_slot[slot] != slot_epoch) return {};
    return leavers_by_slot[slot];
  }

  /// This batch's wave index for `slot`, or kNoWave.
  [[nodiscard]] std::size_t wave_of(std::size_t slot) const {
    return wave_epoch_of_slot[slot] == slot_epoch ? wave_of_slot[slot]
                                                  : kNoWave;
  }

  /// The wave of `slot` this time step: the one already scheduled, else a
  /// fresh one appended to `waves`. kNoWave when every snapshot member of
  /// the cluster is leaving — nobody is left to shuffle (mirrors the
  /// sequential leave()'s size > 1 guard on the post-removal exchange).
  std::size_t schedule_wave(const NowState& state, std::uint32_t slot) {
    if (wave_of(slot) != kNoWave) return wave_of_slot[slot];
    if (state.member_slab().size(slot) <= leavers_of(slot).size()) {
      return kNoWave;
    }
    wave_epoch_of_slot[slot] = slot_epoch;
    wave_of_slot[slot] = waves.size();
    waves.push_back(PlannedWave{slot});
    wave_cache[slot].swaps.clear();
    wave_cache[slot].partners.clear();
    return waves.size() - 1;
  }

  /// Resident bytes of the persistent batch-engine state: the PlanCache
  /// plus every scratch buffer, capacities included down one nesting level
  /// — the batch half of NowSystem::footprint_bytes().
  [[nodiscard]] std::size_t footprint_bytes() const {
    const auto vec_bytes = [](const auto& v) {
      return v.capacity() * sizeof(v[0]);
    };
    std::size_t bytes = cache.footprint_bytes();
    bytes += vec_bytes(wave_cache);
    for (const ClusterWaveCache& c : wave_cache) {
      bytes += vec_bytes(c.swaps) + vec_bytes(c.partners);
    }
    bytes += vec_bytes(wave_ws);
    for (const WaveWorkspace& w : wave_ws) bytes += vec_bytes(w.partner_epoch);
    bytes += vec_bytes(waves) + vec_bytes(op_is_join) + vec_bytes(op_node) +
             vec_bytes(op_slot) + vec_bytes(op_rounds) + vec_bytes(op_rng) +
             vec_bytes(wave_rng);
    bytes += vec_bytes(assignment);
    for (const auto& a : assignment) bytes += vec_bytes(a);
    bytes += vec_bytes(leavers_by_slot);
    for (const auto& l : leavers_by_slot) bytes += vec_bytes(l);
    bytes += vec_bytes(leaver_epoch_of_slot) + vec_bytes(wave_of_slot) +
             vec_bytes(wave_epoch_of_slot) + vec_bytes(candidate_epoch_of_slot);
    bytes += vec_bytes(moved) + vec_bytes(emitted);
    for (const auto& e : emitted) bytes += vec_bytes(e);
    bytes += vec_bytes(group_of_slot) + vec_bytes(apply_workspaces);
    for (const ApplyWorkspace& w : apply_workspaces) {
      bytes += vec_bytes(w.slots) + vec_bytes(w.grouped) +
               vec_bytes(w.edits.merge) + vec_bytes(w.edits.spills) +
               vec_bytes(w.deltas);
      for (const auto& [slot, members] : w.edits.spills) {
        (void)slot;
        bytes += vec_bytes(members);
      }
    }
    bytes += vec_bytes(candidates) + vec_bytes(all_deltas) + vec_bytes(spilled);
    return bytes;
  }
};

namespace {

/// A randCl endpoint planned against the snapshot: its slot plus the
/// walk's critical path and hop count.
struct PlannedWalk {
  std::uint32_t slot = 0;
  std::uint64_t rounds = 0;
  std::size_t hops = 0;
};

/// randCl from `start` against the snapshot. kSampleExact: the endpoint
/// draw through the cache's O(1) alias sampler (same |C|/n law as the
/// live-state Fenwick draw) plus the cached modeled cost (identical charges
/// to run_rand_cl, minus the per-call cost-model recomputation).
/// kSimulate walks hop by hop as usual.
PlannedWalk plan_rand_cl(const NowState& state, const NowParams& params,
                         ClusterId start, const PlanCache& cache,
                         Metrics& metrics, Rng& rng) {
  if (params.walk_mode == WalkMode::kSimulate) {
    const RandClResult walk = run_rand_cl(state, params, start, metrics, rng);
    return {static_cast<std::uint32_t>(state.slot_index(walk.cluster)),
            walk.cost.rounds, walk.hops};
  }
  const std::uint32_t slot = cache.draw_biased(rng);
  metrics.add_messages(cache.walk.cost.messages);
  return {slot, cache.walk.cost.rounds, cache.walk.hops};
}

/// Plans one exchange wave for the cluster in `wave.slot` against the
/// snapshot: the same walk / notice / draw / broadcast cost sequence as the
/// sequential exchange_all, but the membership swaps are recorded into the
/// cluster's wave cache instead of applied. `skips` excludes the batch's
/// departing nodes homed in this cluster (a leaver must not be shuffled
/// onward).
void plan_wave(const NowState& state, const NowParams& params,
               PlannedWave& wave, ClusterWaveCache& out,
               std::span<const NodeId> skips, const PlanCache& cache,
               WaveWorkspace& ws, Metrics& metrics, Rng& rng) {
  OpScope scope(metrics, "exchange");
  const std::uint32_t c_slot = wave.slot;
  const cluster::Cluster& c_cluster = state.cluster_at_slot(c_slot);
  const ClusterId c = c_cluster.id();
  const std::size_t c_byzantine = state.byzantine_count(c);
  ++ws.epoch;
  std::uint64_t rounds_max = 0;
  // The slab is read-only for the entire plan phase, so spans over it stay
  // valid: one extent-table read per cluster interaction.
  const std::span<const NodeId> snapshot = c_cluster.members();
  const std::uint64_t c_size = snapshot.size();
  const std::uint64_t c_neighborhood =
      state.neighborhood_population_at_slot(c_slot);
  for (const NodeId x : snapshot) {
    if (std::find(skips.begin(), skips.end(), x) != skips.end()) continue;
    // Pick the counterpart cluster with randCl (law |C'|/n); a walk landing
    // back home is re-run (bounded retries).
    std::uint32_t partner_slot = c_slot;
    std::uint64_t chain_rounds = 0;
    for (int attempt = 0; attempt < 8 && partner_slot == c_slot; ++attempt) {
      const PlannedWalk walk =
          plan_rand_cl(state, params, c, cache, metrics, rng);
      partner_slot = walk.slot;
      chain_rounds += walk.rounds;
    }
    if (partner_slot != c_slot) {
      if (ws.partner_epoch[partner_slot] != ws.epoch) {
        ws.partner_epoch[partner_slot] = ws.epoch;
        out.partners.push_back(partner_slot);
      }
      const cluster::Cluster& to = state.cluster_at_slot(partner_slot);
      const std::span<const NodeId> to_members = to.members();
      const std::uint64_t to_size = to_members.size();
      chain_rounds +=
          cluster::cluster_send(c_cluster, to, 1, c_byzantine, metrics)
              .cost.rounds;
      const auto draw = cluster::rand_num_value(
          to_size, to_size, params.rand_num_mode, metrics, rng);
      chain_rounds += draw.cost.rounds;
      out.swaps.push_back(
          PendingSwap{x, to_members[static_cast<std::size_t>(draw.value)],
                      c_slot, partner_slot});
      metrics.add_messages(cluster::exchange_swap_units(
          c_size, c_neighborhood, to_size,
          state.neighborhood_population_at_slot(partner_slot)));
      chain_rounds += 2;
    }
    rounds_max = std::max(rounds_max, chain_rounds);
  }
  wave.rounds = rounds_max;
  metrics.add_rounds(rounds_max);
}

/// Plans Algorithm 1 for a fresh node and returns its target's slot.
/// Mirrors NowSystem::place_node except that the joiner is absent from
/// the snapshot, so it does not take part in the induced exchange (it is
/// shuffled from its next operation onward), the induced exchange itself
/// is scheduled by the wave scheduler (one wave per touched cluster per
/// time step) and the induced split is deferred to commit.
std::uint32_t plan_join(const NowState& state, const NowParams& params,
                        const PlanCache& cache, Metrics& metrics, Rng& rng,
                        std::uint64_t& rounds_out) {
  OpScope scope(metrics, "join");
  const ClusterId contact = state.random_cluster_uniform(rng);
  const PlannedWalk walk =
      plan_rand_cl(state, params, contact, cache, metrics, rng);
  std::uint64_t rounds = walk.rounds;

  metrics.add_messages(cluster::join_placement_units(
      state.member_slab().size(walk.slot),
      state.neighborhood_population_at_slot(walk.slot), walk.hops));
  rounds += 2;

  rounds_out = rounds;
  metrics.add_rounds(rounds);
  return walk.slot;
}

/// Plans Algorithm 2 for the leaver homed at `slot`. The leave itself is
/// deterministic — its random decisions all live in the exchange wave the
/// scheduler plans separately — so it reduces to one streaming cost charge
/// over the flat per-slot tables. The induced exchange wave (plus the
/// secondary waves of its partners) is scheduled by the wave scheduler;
/// the induced merge is deferred to commit.
std::uint64_t plan_leave(const NowState& state, std::uint32_t slot,
                         Metrics& metrics) {
  OpScope scope(metrics, "leave");
  // Drop x: one unit from every member to the whole neighborhood.
  metrics.add_messages(state.member_slab().size(slot) *
                       state.neighborhood_population_at_slot(slot));
  metrics.add_rounds(1);
  return 1;
}

/// Resolve, part 2 (sequential, wave-list order): every planned swap
/// resolves at the nodes' *current* homes, so a node an earlier swap of
/// this batch moved is swapped onward from where it now lives, and a swap
/// drops only when an endpoint left in this batch or both now share a
/// cluster. The resolve is the home chain only: two home reads and two
/// home writes per swap. When a committed swap moves an endpoint off its
/// snapshot home (the swap's planned slot), the endpoint joins `moved`;
/// stage 1 derives the membership edits from that list and the final
/// homes. Both endpoints still at their snapshot homes is the fast path,
/// which skips the replay and conflict checks. The order is canonical, so
/// the committed state is independent of the shard count.
/// Kept out of line: inlined into the much larger step_parallel_mixed,
/// the resolve loop ran ~1.7x slower with GCC 12 (perfbench churn_batch,
/// 4 vCPUs).
[[gnu::noinline]] void resolve_swaps(NowState& state, BatchScratch& bs,
                                     OpReport& report) {
  bs.moved.clear();
  for (const PlannedWave& wave : bs.waves) {
    const std::vector<PendingSwap>& swaps = bs.wave_cache[wave.slot].swaps;
    for (std::size_t i = 0; i < swaps.size(); ++i) {
      if (i + kHomePrefetchDistance < swaps.size()) {
        state.prefetch_home(swaps[i + kHomePrefetchDistance].x);
        state.prefetch_home(swaps[i + kHomePrefetchDistance].y);
      }
      const PendingSwap& swap = swaps[i];
      const ClusterId from_id = state.cluster_at_slot(swap.from_slot).id();
      const ClusterId to_id = state.cluster_at_slot(swap.to_slot).id();
      const ClusterId x_home = state.home_of(swap.x);
      const ClusterId y_home = state.home_of(swap.y);
      const bool x_at_snapshot = x_home == from_id;
      const bool y_at_snapshot = y_home == to_id;
      if (!x_at_snapshot || !y_at_snapshot) {
        ++report.resolve_replays;
        if (!x_home.valid() || !y_home.valid() || x_home == y_home) {
          ++report.conflicts;
          continue;
        }
      }
      if (x_at_snapshot) bs.moved.push_back(MovedNode{swap.x, swap.from_slot});
      if (y_at_snapshot) bs.moved.push_back(MovedNode{swap.y, swap.to_slot});
      state.commit_home(swap.x, y_home);
      state.commit_home(swap.y, x_home);
    }
  }
}

/// Stage 1, pass (a), worker `s` of `shards`: emits the batch's net
/// membership edits for a 1/K chunk of the ops and of `moved` into
/// emitted[s * K + block(dest slot)]. A join adds at its target slot and a
/// leave removes at its home slot. A moved node whose final home is its
/// snapshot home (it came back) is skipped; otherwise it is removed at its
/// snapshot slot and added at its final slot. Reads node homes only.
void emit_member_edits(const NowState& state, BatchScratch& bs, std::size_t s,
                       std::size_t shards, std::size_t slot_block) {
  std::vector<SlotEdit>* const out = &bs.emitted[s * shards];
  for (std::size_t b = 0; b < shards; ++b) out[b].clear();
  const auto emit = [&](std::uint32_t slot, NodeId node, bool add) {
    out[slot / slot_block].push_back(SlotEdit{node, slot, add});
  };
  const std::size_t ops = bs.op_node.size();
  for (std::size_t i = s * ops / shards; i < (s + 1) * ops / shards; ++i) {
    emit(bs.op_slot[i], bs.op_node[i], bs.op_is_join[i] != 0);
  }
  const std::size_t begin = s * bs.moved.size() / shards;
  const std::size_t end = (s + 1) * bs.moved.size() / shards;
  for (std::size_t j = begin; j < end; ++j) {
    if (j + kHomePrefetchDistance < end) {
      state.prefetch_home(bs.moved[j + kHomePrefetchDistance].node);
    }
    const MovedNode m = bs.moved[j];
    const auto final_slot =
        static_cast<std::uint32_t>(state.slot_index(state.home_of(m.node)));
    if (final_slot == m.snapshot_slot) continue;
    emit(m.snapshot_slot, m.node, /*add=*/false);
    emit(final_slot, m.node, /*add=*/true);
  }
}

/// Stage 1, pass (b), owner `b` of `shards`: groups every emit worker's
/// edits for block b by slot — a counting sort over the slots that
/// received edits, so its cost follows the edits, not the slot count — and
/// applies each slot's removes and adds with apply_member_edits. Touches
/// only block b's slots, extents and counts, and shard b's workspaces.
void apply_block_edits(NowState& state, BatchScratch& bs, std::size_t b,
                       std::size_t shards) {
  ApplyWorkspace& ws = bs.apply_workspaces[b];
  ws.slots.clear();
  ws.deltas.clear();
  // Count each slot's removes and adds.
  for (std::size_t s = 0; s < shards; ++s) {
    for (const SlotEdit& e : bs.emitted[s * shards + b]) {
      SlotGroup& g = bs.group_of_slot[e.slot];
      if (g.epoch != bs.slot_epoch) {
        g = SlotGroup{bs.slot_epoch, 0, 0};
        ws.slots.push_back(e.slot);
      }
      ++(e.add ? g.adds_end : g.removes_end);
    }
  }
  // Turn the counts into write cursors: each slot's removes, then its adds.
  std::uint32_t offset = 0;
  for (const std::uint32_t slot : ws.slots) {
    SlotGroup& g = bs.group_of_slot[slot];
    const std::uint32_t removes = g.removes_end;
    const std::uint32_t adds = g.adds_end;
    g.removes_end = offset;
    g.adds_end = offset + removes;
    offset += removes + adds;
  }
  ws.grouped.resize(offset);
  for (std::size_t s = 0; s < shards; ++s) {
    for (const SlotEdit& e : bs.emitted[s * shards + b]) {
      SlotGroup& g = bs.group_of_slot[e.slot];
      ws.grouped[(e.add ? g.adds_end : g.removes_end)++] = e.node;
    }
  }
  // The cursors now sit at the ends of their runs.
  NodeId* const base = ws.grouped.data();
  std::uint32_t begin = 0;
  for (const std::uint32_t slot : ws.slots) {
    const SlotGroup& g = bs.group_of_slot[slot];
    const std::span<NodeId> removes(base + begin, base + g.removes_end);
    const std::span<NodeId> adds(base + g.removes_end, base + g.adds_end);
    const std::int64_t delta =
        state.apply_member_edits(slot, removes, adds, ws.edits);
    if (delta != 0) ws.deltas.emplace_back(slot, delta);
    begin = g.adds_end;
  }
}

}  // namespace

// BatchScratch is complete only in this file, so the members that create,
// destroy or read it are defined here — the constructor included.

namespace {

over::OverParams make_over_params(const NowParams& p) {
  over::OverParams op;
  op.max_size = p.max_size;
  op.alpha = p.alpha;
  op.degree_constant = p.over_degree_constant;
  op.cap_factor = p.over_cap_factor;
  return op;
}

}  // namespace

NowSystem::NowSystem(const NowParams& params, Metrics& metrics,
                     std::uint64_t seed)
    : params_(params),
      metrics_(metrics),
      seed_(seed),
      rng_(seed),
      state_(make_over_params(params)),
      batch_(std::make_unique<BatchScratch>()) {}

NowSystem::~NowSystem() = default;

std::size_t NowSystem::footprint_bytes() const {
  return state_.footprint_bytes() + batch_->footprint_bytes();
}

ThreadPool& NowSystem::pool_for(std::size_t shards) {
  const std::size_t hardware = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t wanted = std::min(shards, hardware) - 1;
  if (pool_ == nullptr || pool_->worker_count() < wanted) {
    pool_ = std::make_unique<ThreadPool>(wanted);
  }
  return *pool_;
}

std::pair<std::vector<NodeId>, OpReport> NowSystem::step_parallel_mixed(
    std::size_t joins, std::size_t byzantine_joins,
    const std::vector<NodeId>& leaves, std::size_t shards) {
  assert(initialized_);
  assert(byzantine_joins <= joins);
  shards = std::max<std::size_t>(1, shards);
  if (trace_sink_ != nullptr) {
    trace_sink_->on_batch(joins, byzantine_joins, leaves);
  }
  OpScope scope(metrics_, "batch");
  OpReport combined;
  const std::uint64_t batch_id = batch_counter_++;
  obs::ScopedSpan batch_span(obs::Cat::kStep, "step.batch", nullptr,
                             batch_id, shards);
  BatchScratch& bs = *batch_;

  // --- Sequential setup: allocate joiner identities and corrupt the first
  // byzantine_joins of them, so ids and the Byzantine ground truth are
  // independent of the shard count.
  std::vector<NodeId> joined;
  joined.reserve(joins);
  for (std::size_t i = 0; i < joins; ++i) {
    const NodeId node = state_.fresh_node_id();
    if (i < byzantine_joins) state_.set_byzantine(node, true);
    state_.register_node(node);
    joined.push_back(node);
  }

  // --- Snapshot aggregates over the start-of-step state.
  PlanCache& cache = bs.cache;
  cache.build(state_, params_);

  // --- Partition: leaves by home-cluster slot, joins (homeless until their
  // walk lands) round-robin. The assignment balances work; it can never
  // change results because plans read only the snapshot + their own stream.
  // Leavers are also grouped by home slot: their cluster's wave must not
  // shuffle a departing node onward. The leave sweep prefetches the next
  // leaver's node_home line one op ahead.
  // Phase timing is the span layer's job: each phase opens a ScopedSpan
  // whose measured duration lands both in the trace ring (when recording)
  // and in the OpReport *_ns field — one timing source (DESIGN.md §13).
  obs::ScopedSpan plan_span(obs::Cat::kStep, "step.plan", &combined.plan_ns,
                            batch_id);
  const std::size_t slot_count = state_.slot_count();
  const std::size_t total_ops = joins + leaves.size();
  ++bs.slot_epoch;
  bs.ensure_slot_capacity(slot_count);
  bs.op_is_join.resize(total_ops);
  bs.op_node.resize(total_ops);
  bs.op_slot.resize(total_ops);
  bs.op_rounds.resize(total_ops);
  std::vector<Metrics> shard_metrics(shards);
  if (bs.assignment.size() < shards) bs.assignment.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) bs.assignment[s].clear();
  for (std::size_t i = 0; i < joins; ++i) {
    bs.op_is_join[i] = 1;
    bs.op_node[i] = joined[i];
    bs.assignment[i % shards].push_back(i);
  }
  for (std::size_t j = 0; j < leaves.size(); ++j) {
    if (j + 1 < leaves.size()) state_.prefetch_home(leaves[j + 1]);
    assert(state_.is_placed(leaves[j]) && "leave of an unplaced node");
    const std::size_t slot = state_.slot_index(state_.home_of(leaves[j]));
    const std::size_t index = joins + j;
    bs.op_is_join[index] = 0;
    bs.op_node[index] = leaves[j];
    bs.op_slot[index] = static_cast<std::uint32_t>(slot);
    bs.assignment[slot % shards].push_back(index);
    if (bs.leaver_epoch_of_slot[slot] != bs.slot_epoch) {
      bs.leaver_epoch_of_slot[slot] = bs.slot_epoch;
      bs.leavers_by_slot[slot].clear();
    }
    bs.leavers_by_slot[slot].push_back(leaves[j]);
  }

  // --- Parallel planning against the frozen snapshot. NowState is only
  // read from here until the commit phase below.
  const NowState& snapshot = state_;
  ThreadPool& pool = pool_for(shards);

  // Per-op RNG streams, derived in one bulk kernel (ops occupy substreams
  // [0, total_ops); wave w continues the numbering at total_ops + w).
  bs.op_rng.resize(total_ops, Rng{0});
  Rng::derive_streams(seed_, batch_id, 0, total_ops, bs.op_rng.data());

  pool.parallel_for(shards, [&](std::size_t s) {
    for (const std::size_t index : bs.assignment[s]) {
      Rng op_rng = bs.op_rng[index];
      if (bs.op_is_join[index] != 0) {
        bs.op_slot[index] = plan_join(snapshot, params_, cache,
                                      shard_metrics[s], op_rng,
                                      bs.op_rounds[index]);
      } else {
        bs.op_rounds[index] =
            plan_leave(snapshot, bs.op_slot[index], shard_metrics[s]);
      }
    }
  });

  obs::ScopedSpan wave_span(obs::Cat::kStep, "step.wave_schedule", nullptr,
                            batch_id);

  // --- Wave scheduler. Plans one tier of waves, [begin, end) of the wave
  // list, shard-parallel by slot; wave w draws from stream total_ops + w.
  if (bs.wave_ws.size() < shards) bs.wave_ws.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    if (bs.wave_ws[s].partner_epoch.size() < slot_count) {
      bs.wave_ws[s].partner_epoch.resize(slot_count, 0);
    }
  }
  const auto plan_tier = [&](std::size_t begin, std::size_t end) {
    bs.wave_rng.resize(end, Rng{0});
    Rng::derive_streams(seed_, batch_id,
                        static_cast<std::uint64_t>(total_ops + begin),
                        end - begin, bs.wave_rng.data() + begin);
    pool.parallel_for(shards, [&](std::size_t s) {
      for (std::size_t w = begin; w < end; ++w) {
        PlannedWave& wave = bs.waves[w];
        if (wave.slot % shards != s) continue;
        Rng wave_rng = bs.wave_rng[w];
        plan_wave(snapshot, params_, wave, bs.wave_cache[wave.slot],
                  bs.leavers_of(wave.slot), cache, bs.wave_ws[s],
                  shard_metrics[s], wave_rng);
      }
    });
  };

  // Tier 1: one primary exchange wave per cluster the batch touched (join
  // target or leave home), however many operations landed on it — the
  // paper's semantics, a cluster exchanges all of its nodes once per time
  // step. First-touch operation order makes the wave list canonical.
  bs.waves.clear();
  if (params_.shuffle_enabled) {
    for (std::size_t i = 0; i < total_ops; ++i) {
      const std::size_t w = bs.schedule_wave(snapshot, bs.op_slot[i]);
      if (w != kNoWave && bs.op_is_join[i] == 0) bs.waves[w].from_leave = true;
    }
  }
  bs.primary_count = bs.waves.size();
  plan_tier(0, bs.primary_count);

  // Tier 2: every cluster that swapped with a leave-induced primary wave
  // exchanges all of its own nodes too (Theorem 3's proof relies on this
  // second wave), but again at most once per time step — clusters already
  // shuffled by a primary wave, or named by several primaries, are not
  // re-shuffled.
  for (std::size_t w = 0; w < bs.primary_count; ++w) {
    if (!bs.waves[w].from_leave) continue;
    for (const std::uint32_t partner :
         bs.wave_cache[bs.waves[w].slot].partners) {
      bs.schedule_wave(snapshot, partner);
    }
  }
  plan_tier(bs.primary_count, bs.waves.size());
  combined.wave_count = bs.waves.size();
  wave_span.stop();

  // --- Merge per-shard accounting into the caller's Metrics (inside the
  // open "batch" scope). Rounds: operations overlap in time (max), the two
  // wave tiers run after them (each tier internally parallel, so max again).
  for (auto& shard : shard_metrics) {
    combined.shard_costs.push_back(shard.total());
    metrics_.merge(shard);
  }
  std::uint64_t op_rounds = 0;
  for (const std::uint64_t rounds : bs.op_rounds) {
    op_rounds = std::max(op_rounds, rounds);
  }
  std::uint64_t tier_rounds[2] = {0, 0};
  for (std::size_t w = 0; w < bs.waves.size(); ++w) {
    std::uint64_t& tier = tier_rounds[w < bs.primary_count ? 0 : 1];
    tier = std::max(tier, bs.waves[w].rounds);
  }
  const std::uint64_t rounds_max = op_rounds + tier_rounds[0] + tier_rounds[1];
  plan_span.stop();

  // --- Commit (DESIGN.md §7): sequential resolve, then the parallel
  // (stage 1) and sequential (stage 2) apply stages.
  std::uint64_t commit_rounds = 0;
  obs::ScopedSpan commit_span(obs::Cat::kStep, "step.commit",
                              &combined.commit_ns, batch_id);
  {
    OpScope commit(metrics_, "batch.commit");

    // Resolve, part 1 (sequential, O(ops)): the batch's operations, in
    // canonical order — join home writes, leave ground-truth erasure and
    // home clears. node_home is written directly as moves resolve, so it
    // doubles as the within-batch home map for the swaps below (a leaver's
    // cleared home makes every later swap with it a conflict). Also
    // collects the restructuring candidates in first-touch order (swaps
    // are size-neutral, so only op targets can cross a threshold).
    obs::ScopedSpan resolve_span(obs::Cat::kStep, "step.resolve",
                                 &combined.resolve_ns, batch_id);
    std::vector<ClusterId>& candidates = bs.candidates;
    candidates.clear();  // resized clusters, first touch
    for (std::size_t i = 0; i < total_ops; ++i) {
      if (i + 1 < total_ops) state_.prefetch_home(bs.op_node[i + 1]);
      const std::uint32_t slot = bs.op_slot[i];
      const ClusterId target = state_.cluster_at_slot(slot).id();
      // First-touch candidate dedup, epoch-stamped by slot: op targets are
      // live snapshot clusters, and a live cluster's slot is unique until
      // stage 2's restructuring, so slot identity == cluster identity here.
      if (bs.candidate_epoch_of_slot[slot] != bs.slot_epoch) {
        bs.candidate_epoch_of_slot[slot] = bs.slot_epoch;
        candidates.push_back(target);
      }
      if (bs.op_is_join[i] != 0) {
        state_.commit_home(bs.op_node[i], target);
      } else {
        state_.set_byzantine(bs.op_node[i], false);
        state_.unregister_node(bs.op_node[i]);
        state_.clear_home(bs.op_node[i]);
      }
    }

    resolve_swaps(state_, bs, combined);

    resolve_span.stop();
    obs::ScopedSpan stage1_span(obs::Cat::kStep, "step.stage1",
                                &combined.stage1_ns, batch_id);

    // Stage 1 (parallel, two passes): slots are partitioned into
    // CONTIGUOUS blocks, one per shard. (a) Each worker emits the net edits
    // of a 1/K chunk of the ops and of the moved list into one buffer per
    // destination block. (b) Each block's owner groups its buffers by slot,
    // applies every slot's edits in place and recounts its Byzantine
    // members. Cluster size changes are accumulated per shard, not written
    // to the Fenwick mirror. Block (not mod-K) ownership keeps each
    // worker's stores in disjoint cache-line ranges of the slot table.
    const std::size_t slot_block = (slot_count + shards - 1) / shards;
    if (bs.emitted.size() < shards * shards) {
      bs.emitted.resize(shards * shards);
    }
    if (bs.apply_workspaces.size() < shards) {
      bs.apply_workspaces.resize(shards);
    }
    pool.parallel_for(shards, [&](std::size_t s) {
      emit_member_edits(state_, bs, s, shards, slot_block);
    });
    pool.parallel_for(shards, [&](std::size_t b) {
      apply_block_edits(state_, bs, b, shards);
    });
    stage1_span.stop();
    obs::ScopedSpan stage2_span(obs::Cat::kStep, "step.stage2",
                                &combined.stage2_ns, batch_id);

    // Stage 2 (sequential), part 0: re-home the slots whose merged
    // membership outgrew their slab extent. The spill set is
    // shard-independent (each slot's net edits against deterministic
    // extent caps), so committing in ascending slot order makes the tail
    // allocation sequence — and the slab layout — canonical. Must precede
    // apply_size_deltas, whose debug contract checks final extent sizes.
    {
      bs.spilled.clear();
      for (std::size_t s = 0; s < shards; ++s) {
        const NowState::EditScratch& edits = bs.apply_workspaces[s].edits;
        for (const auto& [slot, members] : edits.spills) {
          bs.spilled.emplace_back(slot, &members);
        }
      }
      std::sort(bs.spilled.begin(), bs.spilled.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      combined.stage2_spills = bs.spilled.size();
      for (const auto& [slot, members] : bs.spilled) {
        state_.commit_spilled_members(slot, *members);
      }
      for (std::size_t s = 0; s < shards; ++s) {
        bs.apply_workspaces[s].edits.spills.clear();
      }
    }

    // Stage 2 (sequential): merge the per-shard size deltas into the
    // Fenwick mirror and the neighborhood populations in one O(k)-bounded
    // pass, reconcile the placed-node count, then run the deferred
    // splits/merges on every cluster whose size changed, in first-touch
    // order.
    std::vector<std::pair<std::size_t, std::int64_t>>& all_deltas =
        bs.all_deltas;
    all_deltas.clear();
    for (std::size_t s = 0; s < shards; ++s) {
      const auto& deltas = bs.apply_workspaces[s].deltas;
      all_deltas.insert(all_deltas.end(), deltas.begin(), deltas.end());
    }
    // The concatenation order depends on the shard count's slot-block
    // partition; every consumer (Fenwick and population adds) is
    // order-independent, and slots are unique per batch (one owner each).
    state_.apply_size_deltas(all_deltas);
    state_.adjust_placed_count(static_cast<std::int64_t>(joins) -
                               static_cast<std::int64_t>(leaves.size()));
    for (const ClusterId c : candidates) {
      if (!state_.has_cluster(c)) continue;  // merged away earlier
      while (state_.has_cluster(c) &&
             state_.cluster_at(c).size() >
                 params_.split_threshold(state_.num_nodes())) {
        commit_rounds += do_split(c, combined);
      }
      if (state_.has_cluster(c) && state_.num_clusters() > 1 &&
          state_.cluster_at(c).size() <
              params_.merge_threshold(state_.num_nodes())) {
        commit_rounds += do_merge(c, combined);
      }
    }
    // Batch-boundary compaction opportunity: a batch of pure in-place
    // try_apply_edits never touches a sequential slab mutator, so the dead
    // space left by earlier relocations is bounded here. The trigger is a
    // pure function of (tail, live) — both shard-independent — so the
    // compaction schedule is canonical.
    state_.maybe_compact_slab();
    metrics_.add_rounds(commit_rounds);
    combined.commit_cost = commit.cost();
    stage2_span.stop();
  }
  commit_span.stop();

  // No per-batch scratch reset: the slot arrays (wave_of_slot,
  // leavers_by_slot, candidate marks) are epoch-stamped, so the next
  // batch's ++slot_epoch makes this batch's content invisible for free.

  combined.cost = scope.cost();
  // Planned operations and waves overlap in time (max within each tier);
  // the commit's restructuring runs after the batch on the critical path
  // (add).
  combined.cost.rounds = rounds_max + commit_rounds;
  return {std::move(joined), combined};
}

}  // namespace now::core
