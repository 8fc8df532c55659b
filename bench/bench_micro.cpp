// MICRO — google-benchmark microbenchmarks of the primitives, for profiling
// the simulator itself (wall-clock, not message-cost, which the other
// benches measure).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "agreement/phase_king.hpp"
#include "cluster/rand_num.hpp"
#include "common/thread_pool.hpp"
#include "core/now.hpp"
#include "core/state.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/random_walk.hpp"
#include "graph/spectral.hpp"

namespace now {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng{1};
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_ErdosRenyi(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<graph::Vertex> verts(n);
  for (std::size_t i = 0; i < n; ++i) verts[i] = i;
  Rng rng{2};
  for (auto _ : state) {
    graph::Graph g;
    graph::generate_erdos_renyi(g, verts, 10.0 / static_cast<double>(n), rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_ErdosRenyi)->Arg(128)->Arg(512)->Arg(2048);

void BM_CtrwWalk(benchmark::State& state) {
  graph::Graph g;
  std::vector<graph::Vertex> verts(200);
  for (std::size_t i = 0; i < verts.size(); ++i) verts[i] = i;
  Rng gen{3};
  graph::generate_erdos_renyi(g, verts, 0.05, gen);
  for (const auto v : g.vertices()) {
    if (g.degree(v) == 0) g.add_edge(v, (v + 1) % 200);
  }
  Rng rng{4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ctrw_walk(g, 0, 25.0, rng).endpoint);
  }
}
BENCHMARK(BM_CtrwWalk);

void BM_SpectralEstimate(benchmark::State& state) {
  graph::Graph g;
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<graph::Vertex> verts(n);
  for (std::size_t i = 0; i < n; ++i) verts[i] = i;
  Rng gen{5};
  graph::generate_erdos_renyi(g, verts, 12.0 / static_cast<double>(n), gen);
  for (const auto v : g.vertices()) {
    if (g.degree(v) == 0) g.add_edge(v, (v + 1) % n);
  }
  Rng rng{6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::estimate_expansion(g, rng, 100).spectral_gap);
  }
}
BENCHMARK(BM_SpectralEstimate)->Arg(128)->Arg(512);

void BM_RandNumMessageLevel(benchmark::State& state) {
  const auto s = static_cast<std::size_t>(state.range(0));
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < s; ++i) members.emplace_back(i);
  Metrics metrics;
  Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::run_rand_num(members, {}, 1000, cluster::RandNumMode::kFast,
                              cluster::RandNumByz::kFollow, metrics, rng)
            .value);
  }
}
BENCHMARK(BM_RandNumMessageLevel)->Arg(16)->Arg(33);

void BM_PhaseKing(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<NodeId> members;
  std::map<NodeId, std::uint64_t> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    members.emplace_back(i);
    inputs[members.back()] = i % 2;
  }
  Metrics metrics;
  Rng rng{8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        agreement::run_phase_king(members, {}, inputs,
                                  agreement::ByzBehavior::kSilent, metrics,
                                  rng)
            .rounds);
  }
}
BENCHMARK(BM_PhaseKing)->Arg(7)->Arg(16)->Arg(31);

struct SystemFixture {
  core::NowParams params;
  Metrics metrics;
  core::NowSystem system;
  explicit SystemFixture(core::WalkMode mode)
      : params([mode] {
          core::NowParams p;
          p.max_size = 1 << 12;
          p.walk_mode = mode;
          return p;
        }()),
        system(params, metrics, 9) {
    system.initialize(800, 120, core::InitTopology::kModeledSparse);
  }
};

void BM_RandClSimulated(benchmark::State& state) {
  SystemFixture fx{core::WalkMode::kSimulate};
  const ClusterId start = fx.system.state().cluster_ids().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.system.rand_cl_from(start).cluster);
  }
}
BENCHMARK(BM_RandClSimulated);

void BM_RandClSampled(benchmark::State& state) {
  SystemFixture fx{core::WalkMode::kSampleExact};
  const ClusterId start = fx.system.state().cluster_ids().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.system.rand_cl_from(start).cluster);
  }
}
BENCHMARK(BM_RandClSampled);

void BM_ExchangeAll(benchmark::State& state) {
  SystemFixture fx{core::WalkMode::kSampleExact};
  std::size_t cursor = 0;
  for (auto _ : state) {
    const auto ids = fx.system.state().cluster_ids();
    benchmark::DoNotOptimize(
        fx.system.exchange_all(ids[cursor++ % ids.size()]).messages);
  }
}
BENCHMARK(BM_ExchangeAll);

/// Join/leave churn at size n — the hot maintenance path whose per-op
/// wall-clock cost gates how large a deployment the simulator can step.
///
/// The second argument is the --shards axis: every count drives batches of
/// kBatch joins + leaves through the same batch engine, so the /n/1 rows
/// are the one-shard baseline a speedup curve divides by. Time is reported
/// per join + leave pair so the BENCH_micro.json rows stay comparable
/// across shard counts and PRs.
void BM_JoinLeaveCycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kBatch = 32;
  core::NowParams params;
  params.max_size = std::max<std::uint64_t>(std::uint64_t{1} << 12,
                                            std::bit_ceil(2 * n));
  params.walk_mode = core::WalkMode::kSampleExact;
  Metrics metrics;
  core::NowSystem system{params, metrics, 9};
  system.initialize(n, n * 15 / 100, core::InitTopology::kModeledSparse);
  double commit_ns = 0;
  double plan_ns = 0;
  double resolve_ns = 0;
  double stage1_ns = 0;
  double stage2_ns = 0;
  double wave_count = 0;
  std::size_t batches = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const auto [joined, up] = system.step_parallel_mixed(kBatch, 0, {}, shards);
    benchmark::DoNotOptimize(up.cost.messages);
    const auto [unused, down] =
        system.step_parallel_mixed(0, 0, joined, shards);
    benchmark::DoNotOptimize(down.cost.messages);
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count() /
        static_cast<double>(kBatch));
    commit_ns += static_cast<double>(up.commit_ns + down.commit_ns);
    plan_ns += static_cast<double>(up.plan_ns + down.plan_ns);
    resolve_ns += static_cast<double>(up.resolve_ns + down.resolve_ns);
    stage1_ns += static_cast<double>(up.stage1_ns + down.stage1_ns);
    stage2_ns += static_cast<double>(up.stage2_ns + down.stage2_ns);
    wave_count += static_cast<double>(up.wave_count + down.wave_count);
    batches += 2;
  }
  // Phase scalar rows of BENCH_micro.json: mean wall-ns per batch of the
  // plan phase and the commit phase (with the commit further broken into
  // resolve / stage-1 apply / stage-2 merge), plus mean exchange waves —
  // the trajectory that attributes whole-step movement to the phase that
  // caused it.
  if (batches > 0) {
    const auto per_batch = [batches](double total) {
      return total / static_cast<double>(batches);
    };
    state.counters["commit_ns"] = per_batch(commit_ns);
    state.counters["plan_ns"] = per_batch(plan_ns);
    state.counters["resolve_ns"] = per_batch(resolve_ns);
    state.counters["stage1_ns"] = per_batch(stage1_ns);
    state.counters["stage2_ns"] = per_batch(stage2_ns);
    state.counters["wave_count"] = per_batch(wave_count);
  }
}
BENCHMARK(BM_JoinLeaveCycle)
    ->UseManualTime()
    ->Args({800, 1})
    ->Args({800, 4})
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({200000, 1})
    ->Args({200000, 4});

/// The huge-batch tier (DESIGN.md §11): one deployment at n ∈ {1e6, 1e7}
/// stepped with 4096-op batches through the sharded engine — the scale the
/// streaming plan kernels, bulk RNG derivation and epoch-stamped scratch
/// exist for. Time is reported per join + leave pair (comparable with
/// BM_JoinLeaveCycle); the counters add the per-batch phase breakdown and
/// the deployment's memory footprint per node (NowSystem::footprint_bytes,
/// capacities included), so both ns/op and bytes-per-node are gated rows in
/// BENCH_micro.json. CI runs the 1e6 row; nightly runs the full 1e7 row and
/// uploads the phase breakdown.
///
/// Initialization at these sizes is minutes of wall time (~130 µs/node),
/// and Google Benchmark re-invokes the benchmark function several times to
/// calibrate the iteration count — so the initialized deployment is built
/// once per n and reused across invocations. Every iteration is a join
/// batch followed by a leave batch of the same nodes, so the population
/// returns to n and the system stays in steady state.
///
/// Each pair still issues kBatch node ids that are never reused, and the
/// id-indexed tables grow with them. So bytes_per_node is measured once,
/// after a fixed warm-up of kWarmupPairs pairs, and not after the timed
/// loop. The timed loop runs a fixed kTimedPairs pairs: the manual time is
/// per op, so a min-time budget would run about a thousand pairs.
struct HugeDeployment {
  static constexpr std::size_t kBatch = 4096;
  static constexpr std::size_t kShards = 8;
  static constexpr int kWarmupPairs = 4;
  static constexpr int kTimedPairs = 16;
  Metrics metrics;
  core::NowSystem system;
  double bytes_per_node = 0;
  explicit HugeDeployment(std::size_t n) : system{params_for(n), metrics, 9} {
    system.initialize(n, n * 15 / 100, core::InitTopology::kModeledSparse);
    for (int i = 0; i < kWarmupPairs; ++i) batch_pair();
    bytes_per_node = static_cast<double>(system.footprint_bytes()) /
                     static_cast<double>(system.num_nodes());
  }
  /// kBatch joins, then a batch in which the same nodes leave.
  std::pair<core::OpReport, core::OpReport> batch_pair() {
    const auto [joined, up] =
        system.step_parallel_mixed(kBatch, 0, {}, kShards);
    const auto [unused, down] =
        system.step_parallel_mixed(0, 0, joined, kShards);
    return {up, down};
  }
  static core::NowParams params_for(std::size_t n) {
    core::NowParams params;
    params.max_size = std::bit_ceil(std::uint64_t{2} * n);
    params.walk_mode = core::WalkMode::kSampleExact;
    return params;
  }
};

HugeDeployment& huge_deployment(std::size_t n) {
  static std::map<std::size_t, std::unique_ptr<HugeDeployment>> cache;
  auto& slot = cache[n];
  if (!slot) slot = std::make_unique<HugeDeployment>(n);
  return *slot;
}

void BM_HugeBatch(benchmark::State& state) {
  HugeDeployment& deployment =
      huge_deployment(static_cast<std::size_t>(state.range(0)));
  double commit_ns = 0;
  double plan_ns = 0;
  double resolve_ns = 0;
  double stage1_ns = 0;
  double stage2_ns = 0;
  std::size_t batches = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const auto [up, down] = deployment.batch_pair();
    benchmark::DoNotOptimize(up.cost.messages);
    benchmark::DoNotOptimize(down.cost.messages);
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count() /
        static_cast<double>(HugeDeployment::kBatch));
    commit_ns += static_cast<double>(up.commit_ns + down.commit_ns);
    plan_ns += static_cast<double>(up.plan_ns + down.plan_ns);
    resolve_ns += static_cast<double>(up.resolve_ns + down.resolve_ns);
    stage1_ns += static_cast<double>(up.stage1_ns + down.stage1_ns);
    stage2_ns += static_cast<double>(up.stage2_ns + down.stage2_ns);
    batches += 2;
  }
  if (batches > 0) {
    const auto per_batch = [batches](double total) {
      return total / static_cast<double>(batches);
    };
    state.counters["commit_ns"] = per_batch(commit_ns);
    state.counters["plan_ns"] = per_batch(plan_ns);
    state.counters["resolve_ns"] = per_batch(resolve_ns);
    state.counters["stage1_ns"] = per_batch(stage1_ns);
    state.counters["stage2_ns"] = per_batch(stage2_ns);
  }
  state.counters["bytes_per_node"] = deployment.bytes_per_node;
}
BENCHMARK(BM_HugeBatch)
    ->UseManualTime()
    ->Iterations(HugeDeployment::kTimedPairs)
    ->Arg(1000000)
    ->Arg(10000000);

/// The stage-1 member-edit hot loop in isolation: apply_member_edits over
/// every cluster of an n-node partition — sort and dedup of the net moves,
/// one-pass merge, in-place slab try_apply_edits — with slots
/// block-partitioned over `shards` workers, exactly the shape of the batch
/// commit's stage 1. Edits alternate between
/// a forward sweep (swap each cluster's 8 lowest members for 8 fresh ids)
/// and its inverse, so the state is steady, deltas net to zero, and no
/// sweep ever spills. Time is reported per cluster-edit application; this
/// is the microbenchmark BM_JoinLeaveCycle's slab win is attributed with.
void BM_MemberEditApply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kClusterSize = 64;
  constexpr std::size_t kEditsPerCluster = 8;
  const std::size_t k = n / kClusterSize;
  over::OverParams over;
  over.max_size = std::bit_ceil(std::uint64_t{2} * n);
  core::NowState st{over};
  std::vector<std::size_t> slots;
  slots.reserve(k);
  // One node id in five is Byzantine, swapped-in ids included, so the
  // stage-1 recount of each slot's Byzantine count reads real marks.
  const auto mark = [&st](NodeId node) {
    if (node.value() % 5 == 0) st.set_byzantine(node, true);
  };
  for (std::size_t ci = 0; ci < k; ++ci) {
    const ClusterId c = st.create_cluster();
    slots.push_back(st.slot_index(c));
    for (std::size_t i = 0; i < kClusterSize; ++i) {
      const NodeId node{ci * kClusterSize + i};
      st.register_node(node);
      st.add_member(c, node);
      mark(node);
    }
  }
  // Per cluster: the lowest members (removed going forward, re-added going
  // back) and their fresh replacements.
  std::vector<std::vector<NodeId>> lowest(k);
  std::vector<std::vector<NodeId>> fresh(k);
  for (std::size_t ci = 0; ci < k; ++ci) {
    for (std::size_t j = 0; j < kEditsPerCluster; ++j) {
      const NodeId new_id{n + ci * kEditsPerCluster + j};
      mark(new_id);
      lowest[ci].push_back(NodeId{ci * kClusterSize + j});
      fresh[ci].push_back(new_id);
    }
  }
  ThreadPool pool{shards > 1 ? shards - 1 : 0};
  std::vector<core::NowState::EditScratch> scratch(shards);
  const auto sweep = [&](std::vector<std::vector<NodeId>>& removes,
                         std::vector<std::vector<NodeId>>& adds) {
    pool.parallel_for(shards, [&](std::size_t s) {
      const std::size_t begin = s * k / shards;
      const std::size_t end = (s + 1) * k / shards;
      for (std::size_t ci = begin; ci < end; ++ci) {
        benchmark::DoNotOptimize(st.apply_member_edits(
            slots[ci], removes[ci], adds[ci], scratch[s]));
      }
    });
  };
  double total_seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    sweep(lowest, fresh);
    sweep(fresh, lowest);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    state.SetIterationTime(elapsed);
    total_seconds += elapsed;
  }
  for (const auto& sc : scratch) {
    if (!sc.spills.empty()) {
      state.SkipWithError("steady-state sweep spilled unexpectedly");
    }
  }
  // Per-cluster-edit cost: each iteration applies one forward and one
  // backward edit list to every cluster.
  state.counters["edit_ns"] = benchmark::Counter(
      total_seconds * 1e9 /
      (static_cast<double>(state.iterations()) * static_cast<double>(2 * k)));
}
BENCHMARK(BM_MemberEditApply)
    ->UseManualTime()
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({1000000, 1})
    ->Args({1000000, 4});

}  // namespace
}  // namespace now

// Custom main: in addition to the console table, always write the results to
// BENCH_micro.json (google-benchmark's JSON schema: wall-ns per op lives in
// real_time) so the wall-clock trajectory of the hot paths is machine-diffable
// across PRs without remembering --benchmark_out flags. An explicit
// --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  const auto has_flag = [&args](std::string_view prefix) {
    return std::any_of(args.begin(), args.end(), [prefix](const char* arg) {
      return std::string_view(arg).starts_with(prefix);
    });
  };
  if (!has_flag("--benchmark_out=")) {
    args.push_back(out_flag.data());
    if (!has_flag("--benchmark_out_format=")) {
      args.push_back(format_flag.data());
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
