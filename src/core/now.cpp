#include "core/now.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "agreement/discovery.hpp"
#include "agreement/quorum.hpp"
#include "cluster/intercluster.hpp"
#include "cluster/rand_num.hpp"
#include "common/math_util.hpp"
#include "core/plan_cache.hpp"
#include "graph/connectivity.hpp"
#include "graph/erdos_renyi.hpp"
#include "obs/obs.hpp"

namespace now::core {

namespace {

// neighborhood_population lives in core/plan_cache.hpp — the same helper
// backs the live-state charging below and the cache maintenance, so the
// audience computation can never drift between them.

/// Charges the cost of cluster `c` multicasting `units` words to every node
/// of every neighboring cluster (each member sends, majority rule applies).
void charge_neighborhood_broadcast(const NowState& state, ClusterId c,
                                   std::uint64_t units, Metrics& metrics) {
  const auto senders =
      static_cast<std::uint64_t>(state.cluster_at(c).size());
  const auto audience =
      static_cast<std::uint64_t>(neighborhood_population(state, c));
  metrics.add_messages(senders * audience * units);
}

over::OverParams make_over_params(const NowParams& p) {
  over::OverParams op;
  op.max_size = p.max_size;
  op.alpha = p.alpha;
  op.degree_constant = p.over_degree_constant;
  op.cap_factor = p.over_cap_factor;
  return op;
}

}  // namespace

// ------------------------------------------------------- sharded batch plan
//
// The sharded engine splits every batch into a PLAN phase (random decisions
// + cost accounting against the frozen start-of-step state; runs
// concurrently, one shard per thread, each operation and each exchange wave
// on its own derived RNG stream) and a COMMIT phase (a sequential resolve
// decides every membership move in canonical order, stage 1 applies the
// per-cluster edits shard-parallel, stage 2 merges size deltas and runs
// the deferred splits/merges sequentially). Plans never
// touch NowState non-const — everything they decide is recorded here.
// The snapshot aggregates live in the persistent, incrementally maintained
// PlanCache (core/plan_cache.hpp).

/// One exchange swap decided during planning: x (member of the wave's
/// cluster) trades places with y (member of the partner). Both planned
/// homes are recorded by cluster SLOT, so the resolve's fast path (both
/// endpoints still at their planned homes) needs no paged slot lookups.
struct PendingSwap {
  NodeId x;
  NodeId y;
  std::uint32_t from_slot = 0;
  std::uint32_t to_slot = 0;
};

/// One scheduled exchange wave (DESIGN.md §7): cluster `cluster` shuffles
/// all of its snapshot members once this time step, however many batch
/// operations touched it. Waves are collected in canonical order (first
/// touch by operation order; secondaries in partner order of their primary)
/// so their RNG streams, and therefore the committed state, are independent
/// of the shard count. The wave's swap and partner buffers live in the
/// per-cluster wave cache (BatchScratch::wave_cache), keyed by `slot` and
/// reused across time steps.
struct PlannedWave {
  ClusterId cluster = ClusterId::invalid();
  std::uint32_t slot = 0;
  /// Substream index: derive_stream(seed, batch, stream) — canonical.
  std::uint64_t stream = 0;
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
  std::vector<ClusterId> partners;
};

/// Per-shard wave-planning workspace: epoch-stamped partner dedup (O(1)
/// per draw instead of a linear scan of the wave's partner list).
struct WaveWorkspace {
  std::vector<std::uint32_t> partner_epoch;  // by dense cluster index
  std::uint32_t epoch = 0;
};

constexpr std::size_t kNoWave = static_cast<std::size_t>(-1);

/// Batch-engine state persisting across time steps (owned by NowSystem
/// through a unique_ptr; the header only forward-declares it). Everything
/// here is either a cache whose content survives batches (PlanCache, the
/// per-cluster wave caches) or scratch whose *capacity* survives (per-slot
/// edit buffers, per-shard workspaces) so steady-state
/// batches run allocation-free. Per-slot scratch is epoch-stamped
/// (DESIGN.md §11): `slot_epoch` bumps once per batch, every write stamps
/// it, and a read whose stamp is stale sees "untouched" — no per-batch
/// reset sweep is ever needed, for any slot count.
struct BatchScratch {
  /// Incrementally maintained snapshot aggregates (core/plan_cache.hpp).
  PlanCache cache;

  /// Per-cluster wave buffers, by slot, reused across steps.
  std::vector<ClusterWaveCache> wave_cache;
  /// Per-shard wave-planning workspaces.
  std::vector<WaveWorkspace> wave_ws;
  std::vector<PlannedWave> primaries;
  std::vector<PlannedWave> secondaries;

  /// Struct-of-arrays op plan, one entry per batch operation in canonical
  /// order (joins first, then leaves): kind, node, planned target (walk
  /// result / leave home), the target's slot, and the op's critical path.
  /// The plan, wave-collection and resolve passes stream these flat arrays
  /// instead of hopping per-op structs.
  std::vector<std::uint8_t> op_is_join;
  std::vector<NodeId> op_node;
  std::vector<ClusterId> op_target;
  std::vector<std::uint32_t> op_slot;
  std::vector<std::uint64_t> op_rounds;
  /// Bulk-derived RNG streams (Rng::derive_streams): one per op, then one
  /// per wave tier, reusing the same buffers every batch.
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

  // Commit-engine scratch: the per-cluster-slot edit buffers (the resolve
  // appends, the stage-1 worker that owns the slot empties them) and the
  // per-shard stage-1 workspaces (merge buffers + signed size-delta
  // arrays).
  std::vector<std::vector<NowState::MemberEdit>> edit_scratch;
  std::vector<NowState::EditScratch> edit_workspaces;
  std::vector<std::vector<std::pair<std::size_t, std::int64_t>>>
      delta_scratch;

  // Commit-phase scratch that used to be per-batch locals; hoisted so
  // steady-state batches stay allocation-free (capacities persist).
  std::vector<std::size_t> touched;
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
    edit_scratch.resize(grown);
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
    bytes += vec_bytes(primaries) + vec_bytes(secondaries) +
             vec_bytes(op_is_join) + vec_bytes(op_node) +
             vec_bytes(op_target) + vec_bytes(op_slot) +
             vec_bytes(op_rounds) + vec_bytes(op_rng) + vec_bytes(wave_rng);
    bytes += vec_bytes(assignment);
    for (const auto& a : assignment) bytes += vec_bytes(a);
    bytes += vec_bytes(leavers_by_slot);
    for (const auto& l : leavers_by_slot) bytes += vec_bytes(l);
    bytes += vec_bytes(leaver_epoch_of_slot) + vec_bytes(wave_of_slot) +
             vec_bytes(wave_epoch_of_slot) + vec_bytes(candidate_epoch_of_slot);
    bytes += vec_bytes(edit_scratch);
    for (const auto& e : edit_scratch) bytes += vec_bytes(e);
    bytes += vec_bytes(edit_workspaces);
    for (const NowState::EditScratch& w : edit_workspaces) {
      bytes += vec_bytes(w.adds) + vec_bytes(w.removes) +
               vec_bytes(w.merge) + vec_bytes(w.spills);
      for (const auto& [slot, members] : w.spills) {
        (void)slot;
        bytes += vec_bytes(members);
      }
    }
    bytes += vec_bytes(delta_scratch);
    for (const auto& d : delta_scratch) bytes += vec_bytes(d);
    bytes += vec_bytes(touched) + vec_bytes(candidates) +
             vec_bytes(all_deltas) + vec_bytes(spilled);
    return bytes;
  }
};

namespace {

/// randCl against the snapshot. kSampleExact: the endpoint draw (via the
/// cache's O(1) alias sampler — same |C|/n law as the live-state Fenwick
/// draw) plus the cached modeled cost (identical charges to run_rand_cl,
/// minus the per-call cost-model recomputation). kSimulate walks hop by hop
/// as usual.
RandClResult plan_rand_cl(const NowState& state, const NowParams& params,
                          ClusterId start, const PlanCache& cache,
                          Metrics& metrics, Rng& rng) {
  if (params.walk_mode == WalkMode::kSimulate) {
    return run_rand_cl(state, params, start, metrics, rng);
  }
  RandClResult result = cache.walk;
  result.cluster = cache.id_by_index[cache.draw_biased(rng)];
  metrics.add_messages(result.cost.messages);
  return result;
}

/// Plans one exchange wave for `wave.cluster` against the snapshot: the same
/// walk / notice / draw / broadcast cost sequence as the sequential
/// exchange_all, but the membership swaps are recorded into the cluster's
/// wave cache instead of applied. `skips` excludes the batch's departing
/// nodes homed in this cluster (a leaver must not be shuffled onward).
/// Partner notices are charged through cluster::cluster_send_charge —
/// planning never consumes the majority-rule outcome, so the per-call
/// Byzantine count is skipped while the charged cost stays identical to
/// cluster_send's.
void plan_wave(const NowState& state, const NowParams& params,
               PlannedWave& wave, ClusterWaveCache& out,
               std::span<const NodeId> skips, const PlanCache& cache,
               WaveWorkspace& ws, Metrics& metrics, Rng& rng) {
  OpScope scope(metrics, "exchange");
  const ClusterId c = wave.cluster;
  const std::size_t c_index = cache.index_by_slot[wave.slot];
  ++ws.epoch;
  std::uint64_t rounds_max = 0;
  const std::size_t c_size = cache.cluster_by_index[c_index]->size();
  const std::uint64_t c_neighborhood = cache.neighborhood_by_index[c_index];
  const cluster::MemberSlab& slab = state.member_slab();
  const std::span<const NodeId> snapshot =
      cache.cluster_by_index[c_index]->members();
  const bool sampled = params.walk_mode == WalkMode::kSampleExact;
  for (const NodeId x : snapshot) {
    if (std::find(skips.begin(), skips.end(), x) != skips.end()) continue;
    // Pick the counterpart cluster with randCl (law |C'|/n); a walk landing
    // back home is re-run (bounded retries). The sampled mode draws through
    // the cache's O(1) alias sampler and charges the modeled walk cost; the
    // simulated mode runs the message-level walk against the snapshot.
    std::size_t partner_index = c_index;
    std::uint64_t chain_rounds = 0;
    for (int attempt = 0; attempt < 8 && partner_index == c_index;
         ++attempt) {
      if (sampled) {
        partner_index = cache.draw_biased(rng);
        metrics.add_messages(cache.walk.cost.messages);
        chain_rounds += cache.walk.cost.rounds;
      } else {
        const auto walk = run_rand_cl(state, params, c, metrics, rng);
        partner_index = cache.index_by_slot[state.slot_index(walk.cluster)];
        chain_rounds += walk.cost.rounds;
      }
    }
    if (partner_index != c_index) {
      if (ws.partner_epoch[partner_index] != ws.epoch) {
        ws.partner_epoch[partner_index] = ws.epoch;
        out.partners.push_back(cache.id_by_index[partner_index]);
      }
      // One extent-table read for the whole partner interaction: the span
      // carries base + size, and the slab is read-only for the entire plan
      // phase, so nothing below can invalidate it (the repeated size()/
      // member_at() calls this replaces each re-read the extent — the
      // intervening Metrics/Rng calls keep the compiler from hoisting).
      const std::uint32_t partner_slot = cache.slot_by_index[partner_index];
      const std::span<const NodeId> to_members = slab.members(partner_slot);
      const std::uint64_t to_size = to_members.size();
      chain_rounds += cluster::cluster_send_charge(c_size, to_size, 1, metrics);
      const auto draw = cluster::rand_num_value(
          to_size, to_size, params.rand_num_mode, metrics, rng);
      chain_rounds += draw.cost.rounds;
      out.swaps.push_back(
          PendingSwap{x, to_members[static_cast<std::size_t>(draw.value)],
                      wave.slot, partner_slot});
      // One coalesced charge: the x <-> y handoff (2 units each way), the
      // composition deltas to both neighborhoods (2 units) and the overlay
      // info the newcomers receive — identical units to the sequential
      // exchange_all, in one Metrics call.
      const std::uint64_t p_neighborhood =
          cache.neighborhood_by_index[partner_index];
      const std::uint64_t handoff_units =
          static_cast<std::uint64_t>(c_size) + to_size;
      const std::uint64_t c_info = c_size + c_neighborhood;
      const std::uint64_t p_info = to_size + p_neighborhood;
      metrics.add_messages(2 * handoff_units +
                           2 * (c_size * c_neighborhood +
                                to_size * p_neighborhood) +
                           c_info * c_size + p_info * to_size);
      chain_rounds += 2;
    }
    rounds_max = std::max(rounds_max, chain_rounds);
  }
  wave.rounds = rounds_max;
  metrics.add_rounds(rounds_max);
}

/// Plans Algorithm 1 for a fresh node. Mirrors NowSystem::place_node except
/// that the joiner is absent from the snapshot, so it does not take part in
/// the induced exchange (it is shuffled from its next operation onward),
/// the induced exchange itself is scheduled by the wave scheduler (one wave
/// per touched cluster per time step) and the induced split is deferred to
/// commit.
void plan_join(const NowState& state, const NowParams& params, NodeId node,
               const PlanCache& cache, Metrics& metrics, Rng& rng,
               ClusterId& target_out, std::uint64_t& rounds_out) {
  (void)node;
  OpScope scope(metrics, "join");
  const ClusterId contact = state.random_cluster_uniform(rng);
  const auto walk = plan_rand_cl(state, params, contact, cache, metrics, rng);
  std::uint64_t rounds = walk.cost.rounds;
  target_out = walk.cluster;

  const auto& dest = state.cluster_at(target_out);
  const std::uint64_t neighborhood = cache.neighborhood(state, target_out);
  metrics.add_messages(dest.size() * neighborhood);  // announce x, 1 unit
  const std::uint64_t info_units =
      static_cast<std::uint64_t>(dest.size()) + neighborhood;
  metrics.add_messages(info_units *
                       (static_cast<std::uint64_t>(dest.size()) +
                        static_cast<std::uint64_t>(walk.hops)));
  rounds += 2;

  rounds_out = rounds;
  metrics.add_rounds(rounds);
}

/// Plans Algorithm 2 for the leaver homed at `slot`. The leave itself is
/// deterministic — its random decisions all live in the exchange wave the
/// scheduler plans separately — so with the home slot precomputed by the
/// partition pass it reduces to one streaming cost charge over the flat
/// per-slot tables (size from the slab extent, neighborhood from the
/// cache's dense array; identical values to the cluster_at path). The
/// induced exchange wave (plus the secondary waves of its partners) is
/// scheduled by the wave scheduler; the induced merge is deferred to
/// commit.
std::uint64_t plan_leave(const NowState& state, const PlanCache& cache,
                         std::uint32_t slot, Metrics& metrics) {
  OpScope scope(metrics, "leave");
  metrics.add_messages(state.member_slab().size(slot) *
                       cache.neighborhood_by_slot[slot]);  // drop x
  metrics.add_rounds(1);
  return 1;
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

void NowSystem::invalidate_plan_cache() { batch_->cache.invalidate(); }

std::size_t NowSystem::footprint_bytes() const {
  return state_.footprint_bytes() + batch_->footprint_bytes();
}

bool NowSystem::plan_cache_consistent() const {
  return !batch_->cache.valid || batch_->cache.consistent_with(state_);
}

InitReport NowSystem::initialize(std::size_t n0, std::size_t byzantine_count,
                                 InitTopology topology) {
  assert(!initialized_);
  assert(n0 >= 2 && byzantine_count < n0);
  OpScope scope(metrics_, "init");
  InitReport report;
  report.n0 = n0;

  // --- Create identities; the static adversary corrupts its fraction now.
  std::vector<NodeId> ids;
  ids.reserve(n0);
  for (std::size_t i = 0; i < n0; ++i) ids.push_back(state_.fresh_node_id());
  for (const std::size_t index : rng_.sample_distinct(n0, byzantine_count)) {
    state_.byzantine.insert(ids[index]);
  }

  // --- Phase 1: network discovery (all honest nodes learn all identities),
  // flooding over the initial knowledge topology.
  if (topology == InitTopology::kModeledSparse) {
    OpScope discovery_scope(metrics_, "init.discovery");
    const double nd = static_cast<double>(n0);
    const double degree = log_pow(nd, 2.0) + 3.0;
    const double edges = nd * degree / 2.0;
    metrics_.add_messages(static_cast<std::uint64_t>(nd * edges));
    metrics_.add_rounds(static_cast<std::uint64_t>(std::ceil(log_n(nd))));
    report.discovery = discovery_scope.cost();
    report.discovery_complete = true;
  } else {
    graph::Graph topo;
    std::vector<graph::Vertex> verts;
    verts.reserve(n0);
    for (const NodeId id : ids) verts.push_back(id.value());
    if (topology == InitTopology::kComplete) {
      graph::generate_erdos_renyi(topo, verts, 1.0, rng_);
    } else {
      const double degree =
          log_pow(static_cast<double>(n0), 2.0) + 3.0;  // polylog knowledge
      const double p = std::min(1.0, degree / static_cast<double>(n0 - 1));
      graph::generate_erdos_renyi(topo, verts, p, rng_);
      // The model assumes the honest nodes start connected; patch the rare
      // disconnected sample by bridging components.
      auto components = graph::connected_components(topo);
      for (std::size_t i = 1; i < components.size(); ++i) {
        topo.add_edge(components[0][0], components[i][0]);
      }
    }
    OpScope discovery_scope(metrics_, "init.discovery");
    const auto discovery =
        agreement::run_discovery(topo, state_.byzantine, metrics_);
    report.discovery = discovery_scope.cost();
    report.discovery_complete = discovery.complete;
  }

  // --- Phase 2: representative cluster via scalable BA ([19]; DESIGN.md §5).
  std::vector<NodeId> representative;
  {
    OpScope quorum_scope(metrics_, "init.quorum");
    const std::size_t rep_size =
        std::min(params_.cluster_size_target(n0), n0);
    auto quorum = agreement::build_representative_quorum(ids, rep_size,
                                                         metrics_, rng_);
    representative = std::move(quorum.committee);
    report.quorum = quorum_scope.cost();
  }

  // --- Phase 3: the representative cluster orders the nodes at random
  // (one randNum call per Fisher–Yates step) and cuts the order into
  // clusters of ~ k log N nodes.
  {
    OpScope partition_scope(metrics_, "init.partition");
    std::uint64_t rounds = 0;
    for (std::size_t i = 0; i < n0; ++i) {
      const auto draw = cluster::rand_num_value(
          representative.size(), std::max<std::uint64_t>(2, n0 - i),
          params_.rand_num_mode, metrics_, rng_);
      rounds += draw.cost.rounds;
    }
    rng_.shuffle(std::span<NodeId>(ids));

    const std::size_t target = params_.cluster_size_target(n0);
    const std::size_t num_clusters = std::max<std::size_t>(1, n0 / target);
    std::vector<ClusterId> cluster_ids;
    cluster_ids.reserve(num_clusters);
    for (std::size_t c = 0; c < num_clusters; ++c) {
      cluster_ids.push_back(state_.create_cluster());
    }
    for (std::size_t i = 0; i < n0; ++i) {
      const ClusterId cid = cluster_ids[i % num_clusters];
      state_.add_member(cid, ids[i]);
      state_.register_node(ids[i]);
    }

    // Overlay wiring: for each pair of clusters, the representative cluster
    // draws the ER coin (we charge one randNum per pair).
    state_.overlay.initialize(cluster_ids, rng_);
    const std::uint64_t pair_count =
        static_cast<std::uint64_t>(num_clusters) *
        std::max<std::uint64_t>(1, num_clusters - 1) / 2;
    const Cost coin =
        cluster::rand_num_cost_model(representative.size(),
                                     params_.rand_num_mode);
    metrics_.add_messages(coin.messages * pair_count);
    rounds += coin.rounds;

    // The representative cluster tells each node its cluster, the members,
    // and the adjacent clusters' compositions.
    std::uint64_t inform_messages = 0;
    for (const ClusterId cid : state_.cluster_ids()) {
      const auto& c = state_.cluster_at(cid);
      const std::uint64_t info_units =
          static_cast<std::uint64_t>(c.size()) +
          static_cast<std::uint64_t>(neighborhood_population(state_, cid));
      inform_messages += static_cast<std::uint64_t>(representative.size()) *
                         static_cast<std::uint64_t>(c.size()) * info_units;
    }
    metrics_.add_messages(inform_messages);
    rounds += 2;
    metrics_.add_rounds(rounds);
    report.partition = partition_scope.cost();
    report.num_clusters = num_clusters;
  }

  report.total = scope.cost();
  initialized_ = true;
  return report;
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
    trace_sink_->on_batch(joins, byzantine_joins, leaves, shards);
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
    if (i < byzantine_joins) state_.byzantine.insert(node);
    state_.register_node(node);
    joined.push_back(node);
  }

  // --- Snapshot aggregates: the persistent PlanCache is rebuilt only after
  // structural changes (splits/merges, sequential join()/leave());
  // otherwise the previous commits' incremental maintenance kept it exact
  // and only the cheap derived quantities (walk cost model, flat snapshot
  // offsets) refresh, O(k) with a trivial constant instead of the full
  // O(k + sum degrees) rebuild.
  PlanCache& cache = bs.cache;
  if (!cache.valid) {
    cache.build(state_, params_);
  } else {
    cache.refresh(state_, params_);
  }
  assert(cache.consistent_with(state_));

  // --- Partition: leaves by home-cluster slot, joins (homeless until their
  // walk lands) round-robin. The assignment balances work; it can never
  // change results because plans read only the snapshot + their own stream.
  // Leavers are also grouped by home slot: their cluster's wave must not
  // shuffle a departing node onward. The op plan is laid out as flat
  // struct-of-arrays (kind / node / target / home slot / rounds) so every
  // later pass over the batch streams sequential memory; the leave sweep
  // prefetches the next leaver's node_home line one op ahead.
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
  bs.op_target.resize(total_ops, ClusterId::invalid());
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
    const ClusterId home = state_.home_of(leaves[j]);
    const std::size_t slot = state_.slot_index(home);
    const std::size_t index = joins + j;
    bs.op_is_join[index] = 0;
    bs.op_node[index] = leaves[j];
    bs.op_target[index] = home;
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
  // [0, total_ops); the wave tiers continue the numbering below).
  bs.op_rng.resize(total_ops, Rng{0});
  Rng::derive_streams(seed_, batch_id, 0, total_ops, bs.op_rng.data());

  pool.parallel_for(shards, [&](std::size_t s) {
    for (const std::size_t index : bs.assignment[s]) {
      Rng op_rng = bs.op_rng[index];
      if (bs.op_is_join[index] != 0) {
        plan_join(snapshot, params_, bs.op_node[index], cache,
                  shard_metrics[s], op_rng, bs.op_target[index],
                  bs.op_rounds[index]);
        bs.op_slot[index] = static_cast<std::uint32_t>(
            snapshot.slot_index(bs.op_target[index]));
      } else {
        bs.op_rounds[index] =
            plan_leave(snapshot, cache, bs.op_slot[index], shard_metrics[s]);
      }
    }
  });

  obs::ScopedSpan wave_span(obs::Cat::kStep, "step.wave_schedule", nullptr,
                            batch_id);

  // --- Wave scheduler, tier 1: one primary exchange wave per cluster the
  // batch touched (join target or leave home), however many operations
  // landed on it — the paper's semantics, a cluster exchanges all of its
  // nodes once per time step. First-touch operation order makes the wave
  // list and the per-wave RNG streams (numbered after the operations)
  // canonical, i.e. independent of the shard count.
  bs.primaries.clear();
  bs.secondaries.clear();
  if (params_.shuffle_enabled) {
    for (std::size_t i = 0; i < total_ops; ++i) {
      const std::size_t slot = bs.op_slot[i];
      if (bs.wave_of(slot) == kNoWave) {
        // A cluster whose every snapshot member is leaving has nobody left
        // to shuffle; skip its wave (mirrors the sequential leave()'s
        // size > 1 guard on the post-removal exchange).
        if (snapshot.member_slab().size(slot) <= bs.leavers_of(slot).size()) {
          continue;
        }
        bs.wave_epoch_of_slot[slot] = bs.slot_epoch;
        bs.wave_of_slot[slot] = bs.primaries.size();
        PlannedWave wave;
        wave.cluster = bs.op_target[i];
        wave.slot = static_cast<std::uint32_t>(slot);
        wave.stream = static_cast<std::uint64_t>(total_ops) +
                      static_cast<std::uint64_t>(bs.primaries.size());
        bs.primaries.push_back(wave);
        bs.wave_cache[slot].swaps.clear();
        bs.wave_cache[slot].partners.clear();
      }
      if (bs.op_is_join[i] == 0 && bs.wave_of(slot) != kNoWave) {
        bs.primaries[bs.wave_of_slot[slot]].from_leave = true;
      }
    }
  }
  if (bs.wave_ws.size() < shards) bs.wave_ws.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    if (bs.wave_ws[s].partner_epoch.size() < cache.id_by_index.size()) {
      bs.wave_ws[s].partner_epoch.resize(cache.id_by_index.size(), 0);
    }
  }
  // Wave streams are numbered right after the ops (primaries[w].stream ==
  // total_ops + w by construction), so one bulk derivation covers the tier.
  bs.wave_rng.resize(bs.primaries.size(), Rng{0});
  Rng::derive_streams(seed_, batch_id, total_ops, bs.primaries.size(),
                      bs.wave_rng.data());
  pool.parallel_for(shards, [&](std::size_t s) {
    for (std::size_t w = 0; w < bs.primaries.size(); ++w) {
      PlannedWave& wave = bs.primaries[w];
      if (wave.slot % shards != s) continue;
      Rng wave_rng = bs.wave_rng[w];
      plan_wave(snapshot, params_, wave, bs.wave_cache[wave.slot],
                bs.leavers_of(wave.slot), cache, bs.wave_ws[s],
                shard_metrics[s], wave_rng);
    }
  });

  // --- Wave scheduler, tier 2: every cluster that swapped with a
  // leave-induced primary wave exchanges all of its own nodes too (Theorem
  // 3's proof relies on this second wave), but again at most once per time
  // step — clusters already shuffled by a primary wave, or named by several
  // primaries, are not re-shuffled.
  for (const PlannedWave& primary : bs.primaries) {
    if (!primary.from_leave) continue;
    for (const ClusterId partner : bs.wave_cache[primary.slot].partners) {
      const std::size_t slot = state_.slot_index(partner);
      if (bs.wave_of(slot) != kNoWave) continue;
      // A partner can carry leavers only when its own primary wave was
      // skipped because everyone is leaving — nobody to shuffle, so no
      // secondary either (a partial-leaver cluster always has a primary).
      if (snapshot.member_slab().size(slot) <= bs.leavers_of(slot).size()) {
        continue;
      }
      bs.wave_epoch_of_slot[slot] = bs.slot_epoch;
      bs.wave_of_slot[slot] = bs.primaries.size() + bs.secondaries.size();
      PlannedWave wave;
      wave.cluster = partner;
      wave.slot = static_cast<std::uint32_t>(slot);
      wave.stream = static_cast<std::uint64_t>(total_ops) +
                    static_cast<std::uint64_t>(bs.primaries.size()) +
                    static_cast<std::uint64_t>(bs.secondaries.size());
      bs.secondaries.push_back(wave);
      bs.wave_cache[slot].swaps.clear();
      bs.wave_cache[slot].partners.clear();
    }
  }
  // Secondary streams continue the numbering: total_ops + |primaries| + w.
  bs.wave_rng.resize(bs.secondaries.size(), Rng{0});
  Rng::derive_streams(seed_, batch_id,
                      static_cast<std::uint64_t>(total_ops) +
                          static_cast<std::uint64_t>(bs.primaries.size()),
                      bs.secondaries.size(), bs.wave_rng.data());
  pool.parallel_for(shards, [&](std::size_t s) {
    for (std::size_t w = 0; w < bs.secondaries.size(); ++w) {
      PlannedWave& wave = bs.secondaries[w];
      if (wave.slot % shards != s) continue;
      Rng wave_rng = bs.wave_rng[w];
      plan_wave(snapshot, params_, wave, bs.wave_cache[wave.slot],
                bs.leavers_of(wave.slot), cache, bs.wave_ws[s],
                shard_metrics[s], wave_rng);
    }
  });
  combined.wave_count = bs.primaries.size() + bs.secondaries.size();
  wave_span.stop();

  // --- Merge per-shard accounting into the caller's Metrics (inside the
  // open "batch" scope). Rounds: operations overlap in time (max), the two
  // wave tiers run after them (each tier internally parallel, so max again).
  std::uint64_t rounds_max = 0;
  for (auto& shard : shard_metrics) {
    combined.shard_costs.push_back(shard.total());
    metrics_.merge(shard);
  }
  for (const std::uint64_t rounds : bs.op_rounds) {
    rounds_max = std::max(rounds_max, rounds);
  }
  std::uint64_t primary_rounds = 0;
  for (const PlannedWave& wave : bs.primaries) {
    primary_rounds = std::max(primary_rounds, wave.rounds);
  }
  std::uint64_t secondary_rounds = 0;
  for (const PlannedWave& wave : bs.secondaries) {
    secondary_rounds = std::max(secondary_rounds, wave.rounds);
  }
  rounds_max += primary_rounds + secondary_rounds;
  plan_span.stop();

  // --- Commit (DESIGN.md §7): sequential resolve, then the parallel
  // (stage 1) and sequential (stage 2) apply stages.
  std::uint64_t commit_rounds = 0;
  obs::ScopedSpan commit_span(obs::Cat::kStep, "step.commit",
                              &combined.commit_ns, batch_id);
  {
    OpScope commit(metrics_, "batch.commit");

    // Resolve, part 1 (sequential, O(ops)): the batch's operations, in
    // canonical order — join adds + home writes, leave removes + ground
    // truth erasure — into per-cluster-slot edit lists. node_home is
    // written directly as moves resolve, so it doubles as the within-batch
    // home map for the swaps below. Also collects the restructuring
    // candidates in first-touch order (swaps are size-neutral, so only op
    // targets can cross a threshold).
    obs::ScopedSpan resolve_span(obs::Cat::kStep, "step.resolve",
                                 &combined.resolve_ns, batch_id);
    std::vector<std::size_t>& touched = bs.touched;
    std::vector<ClusterId>& candidates = bs.candidates;
    touched.clear();
    candidates.clear();  // resized clusters, first touch
    const auto record = [&](std::size_t slot, NodeId n, bool add) {
      if (bs.edit_scratch[slot].empty()) touched.push_back(slot);
      bs.edit_scratch[slot].push_back(NowState::MemberEdit{n, add});
    };
    for (std::size_t i = 0; i < total_ops; ++i) {
      if (i + 1 < total_ops) state_.prefetch_home(bs.op_node[i + 1]);
      const std::size_t slot = bs.op_slot[i];
      // First-touch candidate dedup, epoch-stamped by slot: op targets are
      // live snapshot clusters, and a live cluster's slot is unique until
      // stage 2's restructuring, so slot identity == cluster identity here
      // (the linear std::find this replaces was O(ops^2) at 1e7).
      if (bs.candidate_epoch_of_slot[slot] != bs.slot_epoch) {
        bs.candidate_epoch_of_slot[slot] = bs.slot_epoch;
        candidates.push_back(bs.op_target[i]);
      }
      if (bs.op_is_join[i] != 0) {
        record(slot, bs.op_node[i], /*add=*/true);
        state_.commit_home(bs.op_node[i], bs.op_target[i]);
      } else {
        record(slot, bs.op_node[i], /*add=*/false);
        state_.byzantine.erase(bs.op_node[i]);
        state_.unregister_node(bs.op_node[i]);
        state_.clear_home(bs.op_node[i]);
      }
    }

    // Resolve, part 2 (sequential, canonical wave order): every planned
    // swap resolves at the nodes' *current* homes, so a node an earlier
    // swap of this batch moved is swapped onward from where it now lives,
    // and a swap drops only when an endpoint left in this batch or both
    // now share a cluster. Fast path: both endpoints still live at their
    // planned homes, so the planned u32 slots apply directly and the paged
    // slot lookups are skipped — identical outcome to the general rule.
    // The order is canonical, so the committed state is independent of
    // the shard count.
    const auto cluster_of_slot = [&cache](std::uint32_t slot) {
      return cache.id_by_index[cache.index_by_slot[slot]];
    };
    const auto commit_swap = [&](const PendingSwap& swap, std::size_t x_slot,
                                 ClusterId x_home, std::size_t y_slot,
                                 ClusterId y_home) {
      record(x_slot, swap.x, /*add=*/false);
      record(y_slot, swap.x, /*add=*/true);
      record(y_slot, swap.y, /*add=*/false);
      record(x_slot, swap.y, /*add=*/true);
      state_.commit_home(swap.x, y_home);
      state_.commit_home(swap.y, x_home);
    };
    const auto resolve_waves = [&](const std::vector<PlannedWave>& waves) {
      for (const PlannedWave& wave : waves) {
        for (const PendingSwap& swap : bs.wave_cache[wave.slot].swaps) {
          const ClusterId from_id = cluster_of_slot(swap.from_slot);
          const ClusterId to_id = cluster_of_slot(swap.to_slot);
          const ClusterId x_home = state_.home_of(swap.x);
          const ClusterId y_home = state_.home_of(swap.y);
          if (x_home == from_id && y_home == to_id) {
            commit_swap(swap, swap.from_slot, from_id, swap.to_slot, to_id);
            continue;
          }
          ++combined.resolve_replays;
          if (!x_home.valid() || !y_home.valid() || x_home == y_home) {
            ++combined.conflicts;
            continue;
          }
          commit_swap(swap, state_.slot_index(x_home), x_home,
                      state_.slot_index(y_home), y_home);
        }
      }
    };
    resolve_waves(bs.primaries);
    resolve_waves(bs.secondaries);

    resolve_span.stop();
    obs::ScopedSpan stage1_span(obs::Cat::kStep, "step.stage1",
                                &combined.stage1_ns, batch_id);

    // Stage 1 (parallel): slots are partitioned into CONTIGUOUS blocks
    // (one per shard); each worker applies the member edits of the touched
    // slots in its block. Cluster size changes are accumulated per shard,
    // not written to the Fenwick mirror. Block (not mod-K) ownership keeps
    // each worker's stores in disjoint cache-line ranges of the slot
    // table.
    const std::size_t slot_block = (slot_count + shards - 1) / shards;
    if (bs.edit_workspaces.size() < shards) {
      bs.edit_workspaces.resize(shards);
    }
    if (bs.delta_scratch.size() < shards) bs.delta_scratch.resize(shards);
    for (std::size_t s = 0; s < shards; ++s) bs.delta_scratch[s].clear();
    pool.parallel_for(shards, [&](std::size_t s) {
      for (const std::size_t slot : touched) {
        if (slot / slot_block != s) continue;
        const std::int64_t delta = state_.apply_member_edits(
            slot, bs.edit_scratch[slot], bs.edit_workspaces[s]);
        if (delta != 0) bs.delta_scratch[s].emplace_back(slot, delta);
        bs.edit_scratch[slot].clear();
      }
    });
    stage1_span.stop();
    obs::ScopedSpan stage2_span(obs::Cat::kStep, "step.stage2",
                                &combined.stage2_ns, batch_id);

    // Stage 2 (sequential), part 0: re-home the slots whose merged
    // membership outgrew their slab extent. The spill set is
    // shard-independent (canonical per-slot edits against deterministic
    // extent caps), so committing in ascending slot order makes the tail
    // allocation sequence — and the slab layout — canonical. Must precede
    // apply_size_deltas, whose debug contract checks final extent sizes.
    {
      bs.spilled.clear();
      for (std::size_t s = 0; s < shards; ++s) {
        for (const auto& [slot, members] : bs.edit_workspaces[s].spills) {
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
        bs.edit_workspaces[s].spills.clear();
      }
    }

    // Stage 2 (sequential): merge the per-shard size deltas into the
    // Fenwick mirror in one O(k)-bounded pass, reconcile the placed-node
    // count, then run the deferred splits/merges on every cluster whose
    // size changed, in first-touch order.
    std::vector<std::pair<std::size_t, std::int64_t>>& all_deltas =
        bs.all_deltas;
    all_deltas.clear();
    for (std::size_t s = 0; s < shards; ++s) {
      all_deltas.insert(all_deltas.end(), bs.delta_scratch[s].begin(),
                        bs.delta_scratch[s].end());
    }
    // The concatenation order depends on the shard count's slot-block
    // partition; every consumer (Fenwick adds, PlanCache patches) is
    // order-independent, and slots are unique per batch (one owner each).
    const bool pooled = pool.worker_count() > 0 && shards > 1;
    state_.apply_size_deltas(all_deltas, pooled ? &pool : nullptr, shards);
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
    // try_assigns never touches a sequential slab mutator, so the dead
    // space left by earlier relocations is bounded here. The trigger is a
    // pure function of (tail, live) — both shard-independent — so the
    // compaction schedule is canonical.
    state_.maybe_compact_slab();
    metrics_.add_rounds(commit_rounds);
    combined.commit_cost = commit.cost();

    // Cache maintenance: a structure-preserving batch folds the very size
    // deltas stage 2 just applied into the persistent PlanCache (patching
    // every overlay neighbor's neighborhood population and rebuilding the
    // alias table over the current sizes); any restructuring invalidates
    // it and the next batch rebuilds.
    if (combined.splits > 0 || combined.merges > 0 ||
        combined.rejoins > 0) {
      cache.invalidate();
    } else if (cache.valid) {
      cache.apply_size_deltas(state_, all_deltas);
    }
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

RandClResult NowSystem::rand_cl_from(ClusterId start) {
  return run_rand_cl(state_, params_, start, metrics_, rng_);
}

over::Overlay::Sampler NowSystem::overlay_sampler(std::uint64_t* rounds_max) {
  return [this, rounds_max](ClusterId requester, Rng& rng) -> ClusterId {
    (void)rng;  // walks draw from the system rng for reproducibility
    ClusterId start = requester;
    if (!state_.has_cluster(start) ||
        state_.overlay.degree(start) == 0) {
      // A vertex being wired for the first time cannot start a walk on its
      // own (no edges yet); its sponsor launches the walk instead. Fall back
      // to a uniformly chosen live cluster as the sponsor.
      start = state_.random_cluster_uniform(rng_);
    }
    const auto walk = rand_cl_from(start);
    if (rounds_max != nullptr) {
      *rounds_max = std::max(*rounds_max, walk.cost.rounds);
    }
    return walk.cluster;
  };
}

Cost NowSystem::exchange_all(ClusterId c,
                             std::vector<ClusterId>* partners_out) {
  OpScope scope(metrics_, "exchange");
  batch_->cache.invalidate();  // sequential mutation outside the batch path
  std::uint64_t rounds_max = 0;

  // Deep copy: the exchange below mutates membership (and may relocate
  // slab extents), so the frozen snapshot cannot be a span over the slab.
  const std::span<const NodeId> snapshot_view = state_.cluster_at(c).members();
  const std::vector<NodeId> snapshot(snapshot_view.begin(),
                                     snapshot_view.end());
  // Distinct partner clusters this exchange touched; linear dedup is fine —
  // a cluster has polylog members, so the list stays tiny.
  std::vector<ClusterId> partners;
  for (const NodeId x : snapshot) {
    // Pick the counterpart cluster with randCl (law |C'|/n). The paper
    // exchanges "with nodes chosen at random from other clusters", so a
    // walk that lands back home is re-run (bounded retries; with one
    // cluster there is nobody to swap with and the swap is skipped).
    ClusterId partner = c;
    std::uint64_t chain_rounds = 0;
    for (int attempt = 0; attempt < 8 && partner == c; ++attempt) {
      const auto walk = rand_cl_from(c);
      chain_rounds += walk.cost.rounds;
      partner = walk.cluster;
    }
    if (partner != c) {
      if (std::find(partners.begin(), partners.end(), partner) ==
          partners.end()) {
        partners.push_back(partner);
      }
      const auto& from = state_.cluster_at(c);
      const auto& to = state_.cluster_at(partner);
      // Tell C' it will receive x.
      const auto notice =
          cluster::cluster_send(from, to, 1, state_.byzantine, metrics_);
      chain_rounds += notice.cost.rounds;
      // C' picks the replacement uniformly via randNum.
      const auto draw = cluster::rand_num_value(
          to.size(), to.size(), params_.rand_num_mode, metrics_, rng_);
      chain_rounds += draw.cost.rounds;
      const NodeId y = to.member_at(draw.value);
      // Swap x <-> y; both sides hand over membership + overlay knowledge.
      state_.move_node(x, c, partner);
      state_.move_node(y, partner, c);
      const std::uint64_t handoff_units =
          static_cast<std::uint64_t>(from.size()) +
          static_cast<std::uint64_t>(to.size());
      metrics_.add_messages(2 * handoff_units);
      // Composition deltas to both neighborhoods (x <-> y swapped).
      charge_neighborhood_broadcast(state_, c, 2, metrics_);
      charge_neighborhood_broadcast(state_, partner, 2, metrics_);
      chain_rounds += 1;
      // Newcomers learn the local overlay structure from their new cluster.
      const std::uint64_t c_info =
          static_cast<std::uint64_t>(from.size()) +
          static_cast<std::uint64_t>(neighborhood_population(state_, c));
      const std::uint64_t p_info =
          static_cast<std::uint64_t>(to.size()) +
          static_cast<std::uint64_t>(
              neighborhood_population(state_, partner));
      metrics_.add_messages(c_info * from.size() + p_info * to.size());
      chain_rounds += 1;
    }
    rounds_max = std::max(rounds_max, chain_rounds);
  }

  if (partners_out != nullptr) *partners_out = std::move(partners);
  Cost cost = scope.cost();
  cost.rounds = rounds_max;
  return cost;
}

std::uint64_t NowSystem::place_node(NodeId node, OpReport& report) {
  // Algorithm 1. The node contacts an arbitrary cluster; that cluster picks
  // the destination with randCl.
  const ClusterId contact = state_.random_cluster_uniform(rng_);
  const auto walk = rand_cl_from(contact);
  std::uint64_t rounds = walk.cost.rounds;
  const ClusterId target = walk.cluster;

  state_.add_member(target, node);
  const auto& dest = state_.cluster_at(target);

  // Members of C' announce x to the neighboring clusters (1 unit delta).
  charge_neighborhood_broadcast(state_, target, 1, metrics_);
  // ... and send x its new neighborhood back along the walk's path.
  const std::uint64_t info_units =
      static_cast<std::uint64_t>(dest.size()) +
      static_cast<std::uint64_t>(neighborhood_population(state_, target));
  metrics_.add_messages(info_units *
                        (static_cast<std::uint64_t>(dest.size()) +
                         static_cast<std::uint64_t>(walk.hops)));
  rounds += 2;

  // Shuffle: the receiving cluster exchanges all of its nodes.
  if (params_.shuffle_enabled) {
    const Cost exchange_cost = exchange_all(target);
    rounds += exchange_cost.rounds;
  }

  // Induced split.
  if (state_.cluster_at(target).size() >
      params_.split_threshold(state_.num_nodes())) {
    rounds += do_split(target, report);
  }
  return rounds;
}

std::pair<NodeId, OpReport> NowSystem::join(bool byzantine_node) {
  assert(initialized_);
  OpScope scope(metrics_, "join");
  batch_->cache.invalidate();  // mutates outside the batch commit
  OpReport report;

  const NodeId node = state_.fresh_node_id();
  if (trace_sink_ != nullptr) trace_sink_->on_join(node, byzantine_node);
  if (byzantine_node) state_.byzantine.insert(node);
  state_.register_node(node);
  const std::uint64_t rounds = place_node(node, report);
  metrics_.add_rounds(rounds);

  report.cost = scope.cost();
  return {node, report};
}

OpReport NowSystem::leave(NodeId node) {
  assert(initialized_);
  if (trace_sink_ != nullptr) trace_sink_->on_leave(node);
  OpScope scope(metrics_, "leave");
  batch_->cache.invalidate();  // mutates outside the batch commit
  OpReport report;

  const ClusterId c = state_.home_of(node);
  assert(c.valid() && "leave() of a node that is not placed");
  state_.remove_member(c, node);
  state_.byzantine.erase(node);
  state_.unregister_node(node);

  // Members of C tell their neighbors to drop x (majority-accepted delta).
  charge_neighborhood_broadcast(state_, c, 1, metrics_);
  std::uint64_t rounds = 1;

  if (params_.shuffle_enabled && state_.cluster_at(c).size() > 0) {
    // C exchanges all of its nodes...
    std::vector<ClusterId> partners;
    const Cost primary = exchange_all(c, &partners);
    rounds += primary.rounds;
    // ... and every cluster that swapped with C exchanges all of its own
    // nodes too (Theorem 3's proof relies on this second wave). The waves
    // run in parallel: rounds combine by max.
    std::uint64_t secondary_max = 0;
    for (const ClusterId partner : partners) {
      if (!state_.has_cluster(partner)) continue;
      const Cost secondary = exchange_all(partner);
      secondary_max = std::max(secondary_max, secondary.rounds);
    }
    rounds += secondary_max;
  }

  // Induced merge.
  if (state_.num_clusters() > 1 &&
      state_.cluster_at(c).size() <
          params_.merge_threshold(state_.num_nodes())) {
    rounds += do_merge(c, report);
  }

  metrics_.add_rounds(rounds);
  report.cost = scope.cost();
  return report;
}

std::uint64_t NowSystem::do_split(ClusterId c, OpReport& report) {
  OpScope scope(metrics_, "split");
  report.splits += 1;
  std::uint64_t rounds = 0;

  // Random bisection: one randNum call per Fisher–Yates step. Deep copy —
  // the moves below carve the slab, invalidating spans over it.
  const std::span<const NodeId> member_view = state_.cluster_at(c).members();
  std::vector<NodeId> members(member_view.begin(), member_view.end());
  for (std::size_t i = 0; i + 1 < members.size(); ++i) {
    const auto draw = cluster::rand_num_value(
        members.size(), members.size() - i, params_.rand_num_mode, metrics_,
        rng_);
    rounds += draw.cost.rounds;
  }
  rng_.shuffle(std::span<NodeId>(members));

  const ClusterId fresh = state_.create_cluster();
  const std::size_t half = members.size() / 2;
  for (std::size_t i = half; i < members.size(); ++i) {
    state_.move_node(members[i], c, fresh);
  }

  // C1 (= c) keeps its id and neighbors; C2 joins the overlay through
  // OVER's Add, drawing its neighbors with randCl (walks run in parallel).
  std::uint64_t wiring_rounds = 0;
  state_.overlay.add_vertex(fresh, overlay_sampler(&wiring_rounds), rng_);
  rounds += wiring_rounds;

  // The split is announced to C1's neighborhood; C2 exchanges composition
  // knowledge with its new neighbors.
  charge_neighborhood_broadcast(state_, c, 2, metrics_);
  const std::uint64_t c2_size = state_.cluster_at(fresh).size();
  const std::uint64_t c2_info =
      c2_size + static_cast<std::uint64_t>(
                    neighborhood_population(state_, fresh));
  metrics_.add_messages(c2_info * c2_size);
  rounds += 2;

  (void)scope;
  return rounds;
}

std::uint64_t NowSystem::do_merge(ClusterId c, OpReport& report) {
  OpScope scope(metrics_, "merge");
  report.merges += 1;
  std::uint64_t rounds = 0;

  if (params_.merge_policy == MergePolicy::kAbsorb) {
    // Figure-2 variant: absorb the members of a randCl-chosen victim
    // cluster (re-walking when the walk lands back home — the victim must
    // be a different cluster).
    ClusterId victim = c;
    for (int attempt = 0; attempt < 32 && victim == c; ++attempt) {
      const auto walk = rand_cl_from(c);
      rounds += walk.cost.rounds;
      victim = walk.cluster;
    }
    if (victim == c) return rounds;  // pathological: give up this step
    const std::span<const NodeId> moving_view =
        state_.cluster_at(victim).members();
    const std::vector<NodeId> moving(moving_view.begin(), moving_view.end());
    for (const NodeId x : moving) state_.move_node(x, victim, c);
    charge_neighborhood_broadcast(state_, victim, 1, metrics_);
    std::uint64_t repair_rounds = 0;
    state_.overlay.remove_vertex(victim, overlay_sampler(&repair_rounds),
                                 rng_);
    state_.destroy_cluster(victim);
    rounds += repair_rounds + 1;
    charge_neighborhood_broadcast(state_, c, moving.size(), metrics_);
    rounds += 1;
    if (state_.cluster_at(c).size() >
        params_.split_threshold(state_.num_nodes())) {
      rounds += do_split(c, report);
    }
    return rounds;
  }

  // Algorithm 2 variant: the undersized cluster dissolves; members re-join
  // (deep copy — the removals below edit the slab extent under the span).
  const std::span<const NodeId> member_view = state_.cluster_at(c).members();
  const std::vector<NodeId> members(member_view.begin(), member_view.end());
  charge_neighborhood_broadcast(state_, c, 1, metrics_);  // "C is removed"
  rounds += 1;
  for (const NodeId x : members) {
    state_.remove_member(c, x);
  }
  std::uint64_t repair_rounds = 0;
  state_.overlay.remove_vertex(c, overlay_sampler(&repair_rounds), rng_);
  state_.destroy_cluster(c);
  rounds += repair_rounds;

  // Members re-join via Algorithm 1 (the paper staggers them over the next
  // time steps; we run them back-to-back inside this operation and account
  // their rounds sequentially, which is the same critical path).
  for (const NodeId x : members) {
    OpScope rejoin_scope(metrics_, "rejoin");
    report.rejoins += 1;
    rounds += place_node(x, report);
  }
  (void)scope;
  return rounds;
}

}  // namespace now::core
