// Tests for the sharded batch engine (DESIGN.md §7): the single-shard
// equivalence guarantee (shard count never changes results, only wall
// clock), the per-shard OpReport accounting, and the conflict-dropping
// commit phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/now.hpp"

namespace now::core {
namespace {

NowParams shard_params() {
  NowParams p;
  p.max_size = 1 << 12;
  p.walk_mode = WalkMode::kSampleExact;
  // Tests below assert the compromise invariant after every batch; at the
  // default k = 3 a ~24-member cluster grazes 1/3 on unlucky seeds (the
  // finite-size whp caveat the thm3/remark tests document), so scale k the
  // way Lemma 1 prescribes.
  p.k = 10;
  p.tau = 0.10;
  return p;
}

/// Distinct live victims drawn with `rng`; identical state + identical rng
/// stream => identical victims, which the equivalence test relies on.
std::vector<NodeId> pick_victims(const NowSystem& system, std::size_t count,
                                 Rng& rng) {
  return system.state().sample_distinct_nodes(rng, count);
}

/// Sorted (cluster id, size) pairs — the full partition signature.
std::vector<std::pair<std::uint64_t, std::size_t>> partition_signature(
    const NowSystem& system) {
  std::vector<std::pair<std::uint64_t, std::size_t>> sig;
  for (const ClusterId id : system.state().cluster_ids()) {
    sig.emplace_back(id.value(), system.state().cluster_at(id).size());
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

TEST(ShardTest, ShardCountDoesNotChangeResults) {
  // Same seed, same batches: shards ∈ {1, 4, 8} must produce an IDENTICAL
  // partition — same cluster ids, same sizes, same node homes, same
  // Byzantine ground truth — with the parallel two-stage commit and the
  // wave scheduler engaged, because plans depend only on the start-of-step
  // snapshot and per-op/per-wave derived RNG streams, the wave list is
  // collected in canonical cluster order, and the commit resolves every
  // move in canonical order. Three seeds, mixed batches: joins, leaves and
  // a Byzantine fraction of the joiners in every round. Both walk modes:
  // kSampleExact draws partners through the PlanCache alias sampler,
  // kSimulate walks hop by hop against the snapshot.
  for (const WalkMode mode : {WalkMode::kSampleExact, WalkMode::kSimulate}) {
    NowParams params = shard_params();
    params.walk_mode = mode;
    for (const std::uint64_t seed : {11ull, 29ull, 47ull}) {
      SCOPED_TRACE(testing::Message()
                   << "walk mode " << static_cast<int>(mode) << " seed "
                   << seed);
      constexpr std::size_t kShardAxis[] = {1, 4, 8};
      std::vector<std::unique_ptr<Metrics>> metrics;
      std::vector<std::unique_ptr<NowSystem>> systems;
      std::vector<Rng> victim_rngs;
      for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
        metrics.push_back(std::make_unique<Metrics>());
        systems.push_back(
            std::make_unique<NowSystem>(params, *metrics.back(), seed));
        systems.back()->initialize(1200, 120, InitTopology::kModeledSparse);
        victim_rngs.emplace_back(seed ^ 99);
      }

      for (int round = 0; round < 4; ++round) {
        // Mixed batch: 14 joins of which `round` are Byzantine, 10 leaves.
        const std::size_t byz_joins = static_cast<std::size_t>(round);
        std::vector<std::vector<NodeId>> joined(std::size(kShardAxis));
        std::vector<OpReport> reports(std::size(kShardAxis));
        for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
          const auto leaves = pick_victims(*systems[v], 10, victim_rngs[v]);
          std::tie(joined[v], reports[v]) = systems[v]->step_parallel_mixed(
              14, byz_joins, leaves, kShardAxis[v]);
        }
        for (std::size_t v = 1; v < std::size(kShardAxis); ++v) {
          ASSERT_EQ(joined[0], joined[v])
              << "seed " << seed << " round " << round << " shards "
              << kShardAxis[v];
          EXPECT_EQ(reports[0].splits, reports[v].splits);
          EXPECT_EQ(reports[0].merges, reports[v].merges);
          EXPECT_EQ(reports[0].conflicts, reports[v].conflicts);
          EXPECT_EQ(reports[0].wave_count, reports[v].wave_count);
          EXPECT_EQ(reports[0].cost.rounds, reports[v].cost.rounds);
          EXPECT_EQ(reports[0].cost.messages, reports[v].cost.messages);
        }
        EXPECT_GT(reports[0].wave_count, 0u);
      }

      for (std::size_t v = 1; v < std::size(kShardAxis); ++v) {
        EXPECT_EQ(systems[0]->num_nodes(), systems[v]->num_nodes());
        EXPECT_EQ(partition_signature(*systems[0]),
                  partition_signature(*systems[v]));
        for (const NodeId node : systems[0]->state().live_nodes()) {
          ASSERT_EQ(systems[0]->state().home_of(node),
                    systems[v]->state().home_of(node))
              << "seed " << seed << " shards " << kShardAxis[v];
          EXPECT_EQ(systems[0]->state().byzantine.contains(node),
                    systems[v]->state().byzantine.contains(node));
        }
        EXPECT_EQ(systems[0]->state().byzantine.size(),
                  systems[v]->state().byzantine.size());
        EXPECT_TRUE(systems[v]->check().ok);
      }
      EXPECT_TRUE(systems[0]->check().ok);
    }
  }
}

TEST(ShardTest, WaveSchedulerRunsOneWavePerTouchedCluster) {
  // Several operations landing on one cluster must still produce at most
  // one primary wave per cluster; with a single-cluster partition there is
  // nobody to swap with, so an entire batch yields exactly one wave (the
  // target cluster's own, with zero swaps) — and never one per operation.
  NowParams p = shard_params();
  Metrics metrics;
  NowSystem system{p, metrics, 71};
  system.initialize(60, 0, InitTopology::kModeledSparse);
  ASSERT_EQ(system.num_clusters(), 1u);
  const auto [joined, report] = system.step_parallel_mixed(6, 0, {}, 4);
  ASSERT_EQ(joined.size(), 6u);
  EXPECT_EQ(report.wave_count, 1u);  // 6 joins, one touched cluster
  EXPECT_EQ(report.conflicts, 0u);
  EXPECT_TRUE(system.check().ok);

  // In a multi-cluster deployment the wave count is bounded by the number
  // of live clusters (one wave per cluster per time step), even though
  // sequential join()/leave() would run one exchange per join plus one per
  // leave partner — the O(partners x swaps) duplication the scheduler
  // removes.
  Metrics big_metrics;
  NowSystem big{shard_params(), big_metrics, 73};
  big.initialize(1000, 0, InitTopology::kModeledSparse);
  Rng victims{5};
  const auto leaves = big.state().sample_distinct_nodes(victims, 12);
  const auto [j2, r2] = big.step_parallel_mixed(12, 0, leaves, 4);
  EXPECT_GT(r2.wave_count, 0u);
  EXPECT_LE(r2.wave_count, big.num_clusters());
  EXPECT_TRUE(big.check().ok);
}

TEST(ShardTest, ClusterSizeMultisetMatchesAcrossShardCounts) {
  // The headline equivalence stated in DESIGN.md §7, on the multiset of
  // cluster sizes (id-agnostic) after a heavier mixed run.
  std::map<std::size_t, std::size_t> histogram[2];
  for (int variant = 0; variant < 2; ++variant) {
    Metrics metrics;
    NowSystem system{shard_params(), metrics, 23};
    system.initialize(900, 90, InitTopology::kModeledSparse);
    Rng victims{7};
    for (int round = 0; round < 6; ++round) {
      const auto leaves = pick_victims(system, 8, victims);
      system.step_parallel_mixed(8, 0, leaves, variant == 0 ? 1 : 4);
    }
    for (const ClusterId id : system.state().cluster_ids()) {
      histogram[variant][system.state().cluster_at(id).size()] += 1;
    }
    EXPECT_TRUE(system.check().ok);
  }
  EXPECT_EQ(histogram[0], histogram[1]);
}

TEST(ShardTest, PerShardCostsMergeIntoReport) {
  Metrics metrics;
  NowSystem system{shard_params(), metrics, 31};
  system.initialize(1000, 100, InitTopology::kModeledSparse);
  Rng victims{3};
  const auto leaves = pick_victims(system, 9, victims);

  const auto joins_before = metrics.operation_count(metrics.find("join"));
  const auto leaves_before = metrics.operation_count(metrics.find("leave"));
  const auto [joined, report] =
      system.step_parallel_mixed(9, 0, leaves, 3);
  ASSERT_EQ(joined.size(), 9u);

  // One planning-cost entry per shard; every planned message is accounted
  // exactly once: batch cost = sum of shard costs + the sequential commit.
  ASSERT_EQ(report.shard_costs.size(), 3u);
  std::uint64_t planned_messages = 0;
  for (const Cost& shard : report.shard_costs) {
    EXPECT_GT(shard.messages, 0u);
    planned_messages += shard.messages;
  }
  EXPECT_EQ(report.cost.messages,
            planned_messages + report.commit_cost.messages);

  // Per-operation samples from the shard-local Metrics instances were
  // merged back under the standard labels.
  EXPECT_EQ(metrics.operation_count(metrics.find("join")), joins_before + 9);
  EXPECT_EQ(metrics.operation_count(metrics.find("leave")), leaves_before + 9);

  // Rounds combine by max over the overlapped operations plus the deferred
  // commit restructuring — never the sum of all per-op rounds.
  const auto join_samples = metrics.operation_samples(metrics.find("join"));
  std::uint64_t sum_rounds = 0;
  for (auto it = join_samples.end() - 9; it != join_samples.end(); ++it) {
    sum_rounds += it->rounds;
  }
  EXPECT_GT(report.cost.rounds, 0u);
  EXPECT_LT(report.cost.rounds, sum_rounds + report.commit_cost.rounds + 1);
}

TEST(ShardTest, ShardedBatchConservesNodesAndInvariants) {
  Metrics metrics;
  NowSystem system{shard_params(), metrics, 41};
  system.initialize(800, 120, InitTopology::kModeledSparse);
  Rng victims{13};
  std::size_t expected = 800;
  for (int round = 0; round < 5; ++round) {
    const auto leaves = pick_victims(system, 6, victims);
    const auto [joined, report] =
        system.step_parallel_mixed(11, 0, leaves, 4);
    EXPECT_EQ(joined.size(), 11u);
    expected += 11 - 6;
    ASSERT_EQ(system.num_nodes(), expected);
    const auto inv = system.check();
    ASSERT_TRUE(inv.ok) << (inv.violations.empty() ? ""
                                                   : inv.violations[0]);
  }
}

TEST(ShardTest, LeaveHeavyQuotaBatchesPreserveBitIdentity) {
  // The forced-leave DoS regime: most of a batch's leaves are concentrated
  // on one or two clusters (the scenario layer's batch_leave_quota targets
  // the worst/smallest ones) while joins trickle in — the leave-heavy
  // mixed batches the commit must keep shard-count independent. Victims
  // are drawn from a single cluster per round, plus a Byzantine joiner,
  // across shards {1, 4, 8} and three seeds.
  for (const std::uint64_t seed : {13ull, 37ull, 59ull}) {
    constexpr std::size_t kShardAxis[] = {1, 4, 8};
    const NowParams p = shard_params();
    std::vector<std::unique_ptr<Metrics>> metrics;
    std::vector<std::unique_ptr<NowSystem>> systems;
    for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
      metrics.push_back(std::make_unique<Metrics>());
      systems.push_back(
          std::make_unique<NowSystem>(p, *metrics.back(), seed));
      systems.back()->initialize(1100, 110, InitTopology::kModeledSparse);
    }

    for (int round = 0; round < 4; ++round) {
      std::vector<std::vector<NodeId>> joined(std::size(kShardAxis));
      std::vector<OpReport> reports(std::size(kShardAxis));
      for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
        // Leave-heavy: 4 joins vs 12 leaves, 10 of them members of one
        // cluster (deterministic pick, rotating through the live-cluster
        // list by round), the rest spread by a per-variant RNG with
        // identical streams.
        const auto& state = systems[v]->state();
        const ClusterId target = state.cluster_ids()
            [static_cast<std::size_t>(round) % state.cluster_ids().size()];
        std::vector<NodeId> leaves;
        for (const NodeId member : state.cluster_at(target).members()) {
          if (leaves.size() >= 10) break;
          leaves.push_back(member);
        }
        Rng fill{seed ^
                 (std::uint64_t{0xF0F0} + static_cast<std::uint64_t>(round))};
        while (leaves.size() < 12) {
          const NodeId candidate = state.random_node(fill);
          if (std::find(leaves.begin(), leaves.end(), candidate) ==
              leaves.end()) {
            leaves.push_back(candidate);
          }
        }
        std::tie(joined[v], reports[v]) = systems[v]->step_parallel_mixed(
            4, /*byzantine_joins=*/1, leaves, kShardAxis[v]);
      }
      for (std::size_t v = 1; v < std::size(kShardAxis); ++v) {
        ASSERT_EQ(joined[0], joined[v])
            << "seed " << seed << " round " << round;
        EXPECT_EQ(reports[0].conflicts, reports[v].conflicts);
        EXPECT_EQ(reports[0].resolve_replays, reports[v].resolve_replays);
        EXPECT_EQ(reports[0].wave_count, reports[v].wave_count);
        EXPECT_EQ(reports[0].splits, reports[v].splits);
        EXPECT_EQ(reports[0].merges, reports[v].merges);
        EXPECT_EQ(reports[0].cost.rounds, reports[v].cost.rounds);
      }
    }

    for (std::size_t v = 1; v < std::size(kShardAxis); ++v) {
      EXPECT_EQ(partition_signature(*systems[0]),
                partition_signature(*systems[v]));
      for (const NodeId node : systems[0]->state().live_nodes()) {
        ASSERT_EQ(systems[0]->state().home_of(node),
                  systems[v]->state().home_of(node))
            << "seed " << seed << " shards " << kShardAxis[v];
      }
      EXPECT_TRUE(systems[v]->check().ok);
    }
  }
}

TEST(ShardTest, DenseBatchReplaysAreShardCountIndependent) {
  // A batch dense enough that every cluster gets a wave, so planned swaps
  // often share an endpoint with an earlier move, miss the resolve's
  // planned-slot fast path and re-resolve at the nodes' current homes.
  // That count (resolve_replays) is a property of the canonical resolve
  // order, not of the shard count — like everything else the commit
  // decides — and the committed states stay identical.
  constexpr std::size_t kShardAxis[] = {1, 2, 4, 8};
  std::vector<std::unique_ptr<Metrics>> metrics;
  std::vector<std::unique_ptr<NowSystem>> systems;
  std::vector<Rng> victim_rngs;
  for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
    metrics.push_back(std::make_unique<Metrics>());
    systems.push_back(
        std::make_unique<NowSystem>(shard_params(), *metrics.back(), 83));
    systems.back()->initialize(1000, 100, InitTopology::kModeledSparse);
    victim_rngs.emplace_back(83 ^ 7);
  }

  for (int round = 0; round < 4; ++round) {
    std::vector<std::vector<NodeId>> joined(std::size(kShardAxis));
    std::vector<OpReport> reports(std::size(kShardAxis));
    for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
      const std::size_t clusters = systems[v]->num_clusters();
      const auto leaves =
          pick_victims(*systems[v], 2 * clusters, victim_rngs[v]);
      std::tie(joined[v], reports[v]) = systems[v]->step_parallel_mixed(
          2 * clusters, /*byzantine_joins=*/2, leaves, kShardAxis[v]);
      EXPECT_EQ(reports[v].wave_count, clusters) << "round " << round;
    }
    EXPECT_GT(reports[0].resolve_replays, 0u) << "round " << round;
    EXPECT_GE(reports[0].resolve_replays, reports[0].conflicts);
    for (std::size_t v = 1; v < std::size(kShardAxis); ++v) {
      ASSERT_EQ(joined[0], joined[v]) << "round " << round;
      EXPECT_EQ(reports[0].resolve_replays, reports[v].resolve_replays)
          << "round " << round << " shards " << kShardAxis[v];
      EXPECT_EQ(reports[0].conflicts, reports[v].conflicts);
      EXPECT_EQ(reports[0].wave_count, reports[v].wave_count);
      EXPECT_EQ(reports[0].cost.messages, reports[v].cost.messages);
      EXPECT_EQ(reports[0].cost.rounds, reports[v].cost.rounds);
    }
  }
  for (std::size_t v = 1; v < std::size(kShardAxis); ++v) {
    EXPECT_EQ(partition_signature(*systems[0]),
              partition_signature(*systems[v]));
    for (const NodeId node : systems[0]->state().live_nodes()) {
      ASSERT_EQ(systems[0]->state().home_of(node),
                systems[v]->state().home_of(node))
          << "shards " << kShardAxis[v];
    }
    EXPECT_TRUE(systems[v]->check().ok);
  }
  EXPECT_TRUE(systems[0]->check().ok);
}

/// Same seed, same batches: one system keeps its PlanCache across batches
/// (incremental maintenance), the other is forced to rebuild from scratch
/// before every step. Every message charge the planners make flows
/// through the walk cost model and the kept neighborhood populations, and
/// every partner pick draws from the alias table, so any maintenance
/// drift — a missed size delta, a sampler that differs from a fresh build
/// — shows up as diverging messages or partitions here.
void expect_incremental_matches_rebuild(const NowParams& params,
                                        std::uint64_t seed,
                                        std::uint64_t victim_seed,
                                        std::size_t n0, std::size_t byz0,
                                        std::size_t ops, int rounds) {
  Metrics metrics_inc;
  Metrics metrics_rebuild;
  NowSystem incremental{params, metrics_inc, seed};
  NowSystem rebuild{params, metrics_rebuild, seed};
  incremental.initialize(n0, byz0, InitTopology::kModeledSparse);
  rebuild.initialize(n0, byz0, InitTopology::kModeledSparse);
  Rng victims_a{victim_seed};
  Rng victims_b{victim_seed};

  for (int round = 0; round < rounds; ++round) {
    const auto leaves_a = pick_victims(incremental, ops, victims_a);
    const auto leaves_b = pick_victims(rebuild, ops, victims_b);
    ASSERT_EQ(leaves_a, leaves_b);
    rebuild.invalidate_plan_cache();
    const auto [ja, ra] =
        incremental.step_parallel_mixed(ops, 1, leaves_a, 4);
    const auto [jb, rb] = rebuild.step_parallel_mixed(ops, 1, leaves_b, 4);
    ASSERT_EQ(ja, jb) << "round " << round;
    EXPECT_EQ(ra.cost.messages, rb.cost.messages) << "round " << round;
    EXPECT_EQ(ra.cost.rounds, rb.cost.rounds);
    EXPECT_EQ(ra.wave_count, rb.wave_count);
    EXPECT_EQ(ra.conflicts, rb.conflicts);
  }
  EXPECT_EQ(partition_signature(incremental), partition_signature(rebuild));
  for (const NodeId node : incremental.state().live_nodes()) {
    ASSERT_EQ(incremental.state().home_of(node),
              rebuild.state().home_of(node));
  }
  EXPECT_TRUE(incremental.check().ok);
  EXPECT_TRUE(rebuild.check().ok);
}

TEST(ShardTest, IncrementalPlanCacheMatchesFullRebuild) {
  // Small k: most batches restructure, so the incremental cache rarely
  // survives more than one batch.
  expect_incremental_matches_rebuild(shard_params(), 91, 17, 900, 90, 7, 5);
  // Large k (default k -> ~33-member clusters, ~600 of them, 4+4 ops per
  // batch): batches rarely restructure, so the live cache is carried
  // across many batches by apply_size_deltas and must keep drawing
  // exactly like a fresh build.
  NowParams large;
  large.max_size = 1 << 15;
  large.walk_mode = WalkMode::kSampleExact;
  expect_incremental_matches_rebuild(large, 101, 101 ^ 5, 20000, 1500, 4,
                                     6);
}

TEST(ShardTest, LargeKIncrementalBatchesStayShardCountIndependent) {
  // At this scale a batch rarely restructures, so the PlanCache is carried
  // across batches by apply_size_deltas, which receives the size deltas
  // in the shard count's slot-block concatenation order. Every consumer of
  // those deltas is order-independent, so shards 1 and 4 must agree on
  // every node home after every batch. (The small deployments of the
  // tests above restructure nearly every batch and rebuild the cache.)
  NowParams p;  // default k -> ~33-member clusters, ~600 of them
  p.max_size = 1 << 15;
  p.walk_mode = WalkMode::kSampleExact;
  constexpr std::size_t kShardAxis[] = {1, 4};
  std::vector<std::unique_ptr<Metrics>> metrics;
  std::vector<std::unique_ptr<NowSystem>> systems;
  std::vector<Rng> victim_rngs;
  for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
    metrics.push_back(std::make_unique<Metrics>());
    systems.push_back(
        std::make_unique<NowSystem>(p, *metrics.back(), 101));
    systems.back()->initialize(20000, 1500, InitTopology::kModeledSparse);
    victim_rngs.emplace_back(101 ^ 5);
  }

  for (int round = 0; round < 6; ++round) {
    std::vector<std::vector<NodeId>> joined(std::size(kShardAxis));
    for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
      const auto leaves = pick_victims(*systems[v], 4, victim_rngs[v]);
      std::tie(joined[v], std::ignore) = systems[v]->step_parallel_mixed(
          4, /*byzantine_joins=*/1, leaves, kShardAxis[v]);
    }
    ASSERT_EQ(joined[0], joined[1]) << "round " << round;
    for (const NodeId node : systems[0]->state().live_nodes()) {
      ASSERT_EQ(systems[0]->state().home_of(node),
                systems[1]->state().home_of(node))
          << "round " << round;
    }
  }
  EXPECT_EQ(partition_signature(*systems[0]),
            partition_signature(*systems[1]));
}

/// Live clusters whose kept Byzantine count differs from the O(|C|)
/// recount over their members.
std::size_t count_drifts(const NowState& state) {
  std::size_t drifts = 0;
  for (const ClusterId id : state.cluster_ids()) {
    if (state.byzantine_count(id) !=
        cluster::byzantine_count(state.cluster_at(id), state.byzantine)) {
      ++drifts;
    }
  }
  return drifts;
}

/// The batched join-leave + forced-leave attack of the scenario layer
/// (kTargeted placement with a leave quota): up to `quota` honest members
/// of the most Byzantine cluster are forced out, the Byzantine nodes
/// outside that cluster leave to re-roll their placement, and uniform
/// victims fill the batch up to `leaves`.
std::vector<NodeId> attack_victims(const NowState& state, std::size_t leaves,
                                   std::size_t quota, Rng& rng) {
  std::vector<NodeId> victims;
  const auto add = [&](NodeId node) {
    if (victims.size() < leaves &&
        std::find(victims.begin(), victims.end(), node) == victims.end()) {
      victims.push_back(node);
    }
  };
  const ClusterId worst = state.most_byzantine_cluster();
  for (const NodeId m : state.cluster_at(worst).members()) {
    if (victims.size() >= quota) break;
    if (!state.byzantine.contains(m)) add(m);
  }
  for (const NodeId b : state.byzantine) {
    if (state.home_of(b) != worst) add(b);
  }
  while (victims.size() < leaves) add(state.random_node(rng));
  return victims;
}

/// Live clusters whose member extent differs from the sorted set of live
/// nodes that node_home places in them — the net-move commit's contract:
/// stage 1 derives every extent from the final homes alone.
std::size_t membership_mismatches(const NowState& state) {
  std::map<std::uint64_t, std::vector<NodeId>> homed;
  for (const NodeId node : state.live_nodes()) {
    homed[state.home_of(node).value()].push_back(node);
  }
  std::size_t mismatches = 0;
  for (const ClusterId id : state.cluster_ids()) {
    std::vector<NodeId>& expected = homed[id.value()];
    std::sort(expected.begin(), expected.end());
    const std::span<const NodeId> members = state.cluster_at(id).members();
    if (!std::ranges::equal(members, expected)) ++mismatches;
  }
  return mismatches;
}

TEST(ShardTest, NetMoveCommitMatchesHomeMapAcrossShardCounts) {
  // Dense attack batches: every cluster gets a wave, so nodes move twice
  // (replays), come back to their snapshot home, and meet leavers drawn as
  // swap partners (conflicts). Stage 1 rebuilds each extent from one
  // remove and one add per net move; whatever the shard count — 3 gives
  // uneven slot blocks — each extent must equal the home map's set, each
  // Byzantine count its recount, and the resolve's counters must agree.
  constexpr std::size_t kShardAxis[] = {1, 2, 3, 4, 8};
  std::vector<std::unique_ptr<Metrics>> metrics;
  std::vector<std::unique_ptr<NowSystem>> systems;
  std::vector<Rng> victim_rngs;
  for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
    metrics.push_back(std::make_unique<Metrics>());
    systems.push_back(
        std::make_unique<NowSystem>(shard_params(), *metrics.back(), 97));
    systems.back()->initialize(1000, 100, InitTopology::kModeledSparse);
    victim_rngs.emplace_back(97 ^ 5);
  }
  std::uint64_t replays = 0;
  std::uint64_t conflicts = 0;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<OpReport> reports(std::size(kShardAxis));
    for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
      const std::size_t shards = kShardAxis[v];
      NowSystem& system = *systems[v];
      const std::size_t dense = 2 * system.num_clusters();
      const std::size_t byz = dense / 8;
      const auto victims =
          attack_victims(system.state(), dense, /*quota=*/6, victim_rngs[v]);
      const auto step = system.step_parallel_mixed(dense, byz, victims, shards);
      reports[v] = step.second;
      ASSERT_EQ(membership_mismatches(system.state()), 0u) << shards;
      ASSERT_EQ(count_drifts(system.state()), 0u) << shards;
      const OpReport& first = reports[0];
      EXPECT_EQ(reports[v].resolve_replays, first.resolve_replays) << shards;
      EXPECT_EQ(reports[v].conflicts, first.conflicts) << shards;
    }
    replays += reports[0].resolve_replays;
    conflicts += reports[0].conflicts;
  }
  EXPECT_GT(replays, 0u);
  EXPECT_GT(conflicts, 0u);
  for (std::size_t v = 1; v < std::size(kShardAxis); ++v) {
    EXPECT_EQ(partition_signature(*systems[0]),
              partition_signature(*systems[v]));
    EXPECT_TRUE(systems[v]->check().ok);
  }
}

TEST(ShardTest, ByzantineCountsMatchRecountAfterEveryBatch) {
  // NowState keeps one Byzantine count per cluster slot: stage 1 writes it
  // from the netted edits, the sequential mutators and set_byzantine move
  // it, and snapshot load rebuilds it. After every step of an attack that
  // splits, merges and spills, each count must equal the recount.
  for (const WalkMode mode : {WalkMode::kSampleExact, WalkMode::kSimulate}) {
    std::map<std::uint64_t, std::size_t> final_counts[2];
    constexpr std::size_t kShardAxis[] = {1, 4};
    for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
      const std::size_t shards = kShardAxis[v];
      const std::string where = std::string("mode ") +
                                (mode == WalkMode::kSimulate ? "simulate"
                                                             : "sample") +
                                " shards " + std::to_string(shards);
      NowParams p;
      p.max_size = 1 << 12;
      p.walk_mode = mode;
      Metrics metrics;
      NowSystem system{p, metrics, 211};
      system.initialize(600, 60, InitTopology::kModeledSparse);
      ASSERT_EQ(count_drifts(system.state()), 0u) << where;
      Rng rng{212};
      std::size_t splits = 0;
      std::size_t merges = 0;
      std::size_t spills = 0;
      for (int step = 0; step < 24; ++step) {
        // Grow for eight steps, then shrink: splits, then merges.
        const bool grow = step % 16 < 8;
        const std::size_t joins = grow ? 48 : 8;
        const std::size_t leaves = grow ? 8 : 48;
        const auto victims =
            attack_victims(system.state(), leaves, /*quota=*/6, rng);
        const auto [joined, report] = system.step_parallel_mixed(
            joins, /*byzantine_joins=*/joins / 3, victims, shards);
        splits += report.splits;
        merges += report.merges;
        spills += report.stage2_spills;
        ASSERT_EQ(count_drifts(system.state()), 0u)
            << where << " batch " << step;
      }
      EXPECT_GT(splits, 0u) << where;
      EXPECT_GT(merges, 0u) << where;
      EXPECT_GT(spills, 0u) << where;

      // Per-op joins and leaves, Byzantine and honest.
      for (const bool byzantine : {true, false, true}) {
        (void)system.join(byzantine);
        ASSERT_EQ(count_drifts(system.state()), 0u) << where << " join";
      }
      const NodeId byzantine_leaver = system.state().byzantine.at_index(0);
      (void)system.leave(byzantine_leaver);
      ASSERT_EQ(count_drifts(system.state()), 0u) << where << " leave";
      (void)system.leave(system.state().random_honest_node(rng));
      ASSERT_EQ(count_drifts(system.state()), 0u) << where << " leave";

      // Snapshot round trip: load rebuilds the counts from the members.
      const std::string path =
          testing::TempDir() + "now_byzantine_counts_" +
          std::to_string(static_cast<int>(mode)) + "_" +
          std::to_string(shards) + ".snap";
      system.save(path);
      Metrics loaded_metrics;
      NowSystem loaded{p, loaded_metrics, 211};
      loaded.load(path);
      std::remove(path.c_str());
      ASSERT_EQ(count_drifts(loaded.state()), 0u) << where << " load";
      for (const ClusterId id : system.state().cluster_ids()) {
        EXPECT_EQ(loaded.state().byzantine_count(id),
                  system.state().byzantine_count(id))
            << where;
      }
      for (int step = 0; step < 2; ++step) {
        const auto victims =
            attack_victims(loaded.state(), 8, /*quota=*/6, rng);
        (void)loaded.step_parallel_mixed(8, 4, victims, shards);
        ASSERT_EQ(count_drifts(loaded.state()), 0u)
            << where << " batch after load " << step;
      }
      for (const ClusterId id : loaded.state().cluster_ids()) {
        final_counts[v][id.value()] = loaded.state().byzantine_count(id);
      }
    }
    EXPECT_EQ(final_counts[0], final_counts[1]);
  }
}

/// Clusters whose kept neighborhood population differs from the recount.
std::size_t population_drifts(const NowState& state) {
  std::size_t drifts = 0;
  for (const ClusterId id : state.cluster_ids()) {
    if (state.neighborhood_population(id) !=
        count_neighborhood_population(state, id)) {
      ++drifts;
    }
  }
  return drifts;
}

TEST(ShardTest, NeighborhoodPopulationsMatchRecountAfterEveryBatch) {
  // NowState keeps one neighborhood population per cluster slot: stage 2's
  // apply_size_deltas adds each slot's delta to its neighbors, the
  // deferred splits and merges go through the sequential mutators and the
  // overlay calls that recount, and snapshot load rebuilds them. After
  // every step of an attack that splits, merges and spills, each one must
  // equal the adjacency recount, for every shard count.
  std::map<std::uint64_t, std::uint64_t> final_populations[2];
  constexpr std::size_t kShardAxis[] = {1, 4};
  for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
    const std::size_t shards = kShardAxis[v];
    const std::string where = "shards " + std::to_string(shards);
    NowParams p;
    p.max_size = 1 << 12;
    p.walk_mode = WalkMode::kSampleExact;
    Metrics metrics;
    NowSystem system{p, metrics, 311};
    system.initialize(600, 60, InitTopology::kModeledSparse);
    ASSERT_EQ(population_drifts(system.state()), 0u) << where;
    Rng rng{312};
    std::size_t splits = 0;
    std::size_t merges = 0;
    std::size_t spills = 0;
    for (int step = 0; step < 24; ++step) {
      // Grow for eight steps, then shrink: splits, then merges.
      const bool grow = step % 16 < 8;
      const std::size_t joins = grow ? 48 : 8;
      const std::size_t leaves = grow ? 8 : 48;
      const auto victims =
          attack_victims(system.state(), leaves, /*quota=*/6, rng);
      const auto [joined, report] = system.step_parallel_mixed(
          joins, /*byzantine_joins=*/joins / 3, victims, shards);
      splits += report.splits;
      merges += report.merges;
      spills += report.stage2_spills;
      ASSERT_EQ(population_drifts(system.state()), 0u)
          << where << " batch " << step;
    }
    EXPECT_GT(splits, 0u) << where;
    EXPECT_GT(merges, 0u) << where;
    EXPECT_GT(spills, 0u) << where;

    // Snapshot round trip: load rebuilds the populations from the sizes
    // and the adjacency.
    const std::string path = testing::TempDir() + "now_populations_" +
                             std::to_string(shards) + ".snap";
    system.save(path);
    Metrics loaded_metrics;
    NowSystem loaded{p, loaded_metrics, 311};
    loaded.load(path);
    std::remove(path.c_str());
    ASSERT_EQ(population_drifts(loaded.state()), 0u) << where << " load";
    for (const ClusterId id : system.state().cluster_ids()) {
      EXPECT_EQ(loaded.state().neighborhood_population(id),
                system.state().neighborhood_population(id))
          << where;
    }
    for (int step = 0; step < 2; ++step) {
      const auto victims =
          attack_victims(loaded.state(), 8, /*quota=*/6, rng);
      (void)loaded.step_parallel_mixed(8, 4, victims, shards);
      ASSERT_EQ(population_drifts(loaded.state()), 0u)
          << where << " batch after load " << step;
    }
    for (const ClusterId id : loaded.state().cluster_ids()) {
      final_populations[v][id.value()] =
          loaded.state().neighborhood_population(id);
    }
  }
  EXPECT_EQ(final_populations[0], final_populations[1]);
}

}  // namespace
}  // namespace now::core
