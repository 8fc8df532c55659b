// The two single-process workloads: churn_batch (the sharded batch engine)
// and attack_seq (the sequential per-operation path under the Section 3.3
// join-leave attack). Both run one NowSystem at n0 = 1e5 as a closed loop
// with one client: each step starts when the previous call returned.
#include <bit>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/now.hpp"
#include "core/snapshot.hpp"
#include "obs/obs.hpp"

namespace perfbench {
namespace {

using now::ClusterId;
using now::Metrics;
using now::NodeId;
using now::core::NowSystem;
using now::core::OpReport;

constexpr std::size_t kN0 = 100000;
constexpr std::size_t kInitialByzantine = kN0 * 5 / 100;
constexpr std::size_t kShards = 4;  // = nproc of the reference host
constexpr std::size_t kSetupSamples = 5;
constexpr std::size_t kProbeSamples = 10;  // HostProbe samples per set-up

// churn_batch step shape: 256 joins + 256 leaves, 16 of the leaves forced
// from the currently smallest cluster (the batched forced-leave shape).
// Smaller batches made step times bimodal on a 4-core host.
constexpr std::size_t kBatchJoins = 256;
constexpr std::size_t kBatchLeaves = 256;
constexpr std::size_t kForcedLeaves = 16;
constexpr std::size_t kBatchWarmupSteps = 30;
constexpr std::size_t kBatchCheckEvery = 25;
constexpr double kBatchTailPercentile = 90;

// attack_seq: a quarter of the steps are uniform background churn.
constexpr double kBackgroundShare = 0.25;
constexpr std::size_t kSeqWarmupSteps = 1000;
constexpr std::size_t kSeqCheckEvery = 1000;
constexpr double kSeqTailPercentile = 99;
constexpr std::size_t kSeqRssStep = 8000;

now::core::NowParams deployment_params() {
  now::core::NowParams params;
  params.max_size = std::bit_ceil(std::uint64_t{2} * kN0);
  params.walk_mode = now::core::WalkMode::kSampleExact;
  return params;
}

std::uint64_t system_seed(std::uint64_t seed) {
  return InputRng(seed ^ 0x5EED0F5E5EEDULL).next();
}

struct Deployment {
  Metrics metrics;
  NowSystem system;
  explicit Deployment(std::uint64_t seed)
      : system(deployment_params(), metrics, seed) {}
  /// Returns the CPU seconds initialize() took.
  double initialize() {
    const double c0 = cpu_ms();
    (void)system.initialize(kN0, kInitialByzantine,
                            now::core::InitTopology::kModeledSparse);
    return (cpu_ms() - c0) / 1000.0;
  }
};

/// Sets up kSetupSamples deployments one after another in this process and
/// keeps the last one for the timed phase. Only the first starts on a fresh
/// heap; the rest reuse the memory the previous one freed, so the median
/// measures the set-up work rather than how fast this VM hands out fresh
/// pages, which varied 2-3x from run to run on the reference host.
std::unique_ptr<Deployment> set_up(std::uint64_t seed, HostProbe& probe,
                                   std::vector<double>& samples) {
  for (std::size_t i = 0; i + 1 < kSetupSamples; ++i) {
    probe.sample(kProbeSamples, 0);
    samples.push_back(Deployment(seed).initialize());
  }
  probe.sample(kProbeSamples, 0);
  auto d = std::make_unique<Deployment>(seed);
  samples.push_back(d->initialize());
  return d;
}

/// Structural invariants I2-I5 (failures) and I1 (a protocol outcome,
/// counted, not failed). I1 violations are exactly the compromised
/// clusters, so the rest of the violation list is structural.
struct Sample {
  std::size_t structural = 0;
  std::size_t compromised = 0;
  std::string first_violation;
};

Sample sample_invariants(const NowSystem& system) {
  const auto report = system.check();
  Sample s;
  s.compromised = report.compromised_clusters;
  s.structural = report.violations.size() - report.compromised_clusters;
  for (const std::string& v : report.violations) {
    if (v.find("compromised") == std::string::npos) {
      s.first_violation = v;
      break;
    }
  }
  return s;
}

/// Population stays at n0 (every step has as many joins as leaves) and the
/// Byzantine population stays within the tau * n budget.
bool conserved(const NowSystem& system, std::string& why) {
  const std::size_t n = system.num_nodes();
  const std::size_t byz = system.state().byzantine_total();
  if (n != kN0) {
    why = "population " + std::to_string(n) + " != " + std::to_string(kN0);
    return false;
  }
  if (static_cast<double>(byz) >
      system.params().tau * static_cast<double>(n)) {
    why = "byzantine " + std::to_string(byz) + " exceeds tau * n";
    return false;
  }
  return true;
}

/// Fingerprint of the deterministic state: partition, membership order,
/// Byzantine set size and the system RNG.
std::uint64_t fingerprint(NowSystem& system) {
  now::core::SnapshotWriter w;
  const auto& state = system.state();
  w.u64(state.num_nodes());
  w.u64(state.num_clusters());
  w.u64(state.byzantine_total());
  for (const ClusterId id : state.cluster_ids()) {
    w.u64(id.value());
    for (const NodeId m : state.cluster_at(id).members()) w.u64(m.value());
  }
  for (const std::uint64_t word : system.rng().state()) w.u64(word);
  return now::core::fnv1a64(w.buffer().data(), w.buffer().size());
}

/// Paired obs overhead: steps alternate telemetry off (even) and on (odd);
/// the median of the pairwise differences cancels host drift.
double obs_overhead_pct(const std::vector<double>& call_ms) {
  std::vector<double> diff;
  std::vector<double> off;
  for (std::size_t i = 0; i + 1 < call_ms.size(); i += 2) {
    diff.push_back(call_ms[i + 1] - call_ms[i]);
    off.push_back(call_ms[i]);
  }
  const double base = median(off);
  return base > 0 ? 100.0 * median(diff) / base : 0.0;
}

// --------------------------------------------------------------- churn_batch

struct BatchInput {
  std::size_t byzantine_joins = 0;
  std::vector<NodeId> leaves;
};

/// One step's inputs, drawn from the workload seed and the current state:
/// kForcedLeaves members of the currently smallest cluster, the rest
/// uniform and distinct; as many Byzantine joiners as Byzantine leavers,
/// so both the population and the Byzantine share stay put.
BatchInput make_batch(const NowSystem& system, InputRng& rng) {
  const auto& state = system.state();
  ClusterId smallest = ClusterId::invalid();
  std::size_t best = SIZE_MAX;
  for (const ClusterId id : state.cluster_ids()) {
    const std::size_t size = state.cluster_at(id).size();
    if (size < best) {
      best = size;
      smallest = id;
    }
  }
  BatchInput in;
  std::unordered_set<std::uint64_t> chosen;
  for (const NodeId m : state.cluster_at(smallest).members()) {
    if (in.leaves.size() == kForcedLeaves) break;
    chosen.insert(m.value());
    in.leaves.push_back(m);
  }
  const auto live = state.live_nodes();
  while (in.leaves.size() < kBatchLeaves) {
    const NodeId pick = live[rng.below(live.size())];
    if (chosen.insert(pick.value()).second) in.leaves.push_back(pick);
  }
  for (const NodeId v : in.leaves) {
    if (state.byzantine.contains(v)) ++in.byzantine_joins;
  }
  return in;
}

/// OpReport fields that must not depend on the shard count (DESIGN.md §7).
/// resolve_replays is left out: it counts work of the optimistic resolve,
/// which ResolveMode::kAuto runs only when shards >= 2, so the shards=1
/// twin always reports 0 there.
bool same_counts(const OpReport& a, const OpReport& b) {
  return a.cost == b.cost && a.splits == b.splits && a.merges == b.merges &&
         a.rejoins == b.rejoins && a.conflicts == b.conflicts &&
         a.stage2_spills == b.stage2_spills && a.wave_count == b.wave_count &&
         a.commit_cost == b.commit_cost;
}

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

void run_churn_batch(const RunConfig& config, Result& result) {
  HostProbe probe;
  std::vector<double> setup;
  auto main = set_up(system_seed(config.seed), probe, setup);
  NowSystem& system = main->system;
  std::unique_ptr<Deployment> twin;
  if (config.trace) {
    // The shards=1 twin steps the same inputs in lockstep: its phase times
    // give the parallel speedup per phase, and its reports and final state
    // must equal the shards=4 system's.
    twin = std::make_unique<Deployment>(system_seed(config.seed));
    (void)twin->initialize();
  }
  InputRng rng(config.seed);
  std::string why;

  for (std::size_t i = 0; i < kBatchWarmupSteps; ++i) {
    const BatchInput in = make_batch(system, rng);
    (void)system.step_parallel_mixed(kBatchJoins, in.byzantine_joins,
                                     in.leaves, kShards);
    if (twin) {
      (void)twin->system.step_parallel_mixed(kBatchJoins, in.byzantine_joins,
                                             in.leaves, 1);
    }
  }

  // Peak RSS is read at the end of warm-up. Node ids are never reused, so
  // memory keeps growing with churn, and in the timed phase it grows in
  // jumps of 10-18 MB at steps that differ from run to run (at step 300
  // the peak read 62-75 MB over five seeds, against 34.7-35.4 MB here).
  const double rss_mb = self_peak_rss_mb();

  SpanLog spans;
  std::vector<double> step_ms;
  std::vector<double> end_ms;
  std::vector<double> check_ms;
  std::vector<OpReport> reports;
  std::vector<OpReport> twin_reports;
  std::size_t max_compromised = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  double ops = 0;
  const std::uint64_t byzantine_start = system.state().byzantine_total();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  std::vector<double> wall_ms;
  double probe_ms = 0;  // HostProbe CPU time inside the timed phase
  const double cpu_start = cpu_ms();
  for (std::uint64_t step = 0; Clock::now() < deadline; ++step) {
    result.attempt();
    const std::size_t root = spans.open("step", step);
    const std::size_t gen = spans.open("gen", step, root);
    const BatchInput in = make_batch(system, rng);
    spans.close(gen);
    const bool obs_on = config.trace && step % 2 == 1;
    if (obs_on) now::obs::set_enabled(true);
    const std::size_t call = spans.open("core.step_parallel_mixed", step, root);
    const double c0 = cpu_ms();
    const auto t0 = Clock::now();
    OpReport report;
    try {
      std::vector<NodeId> joined;
      std::tie(joined, report) = system.step_parallel_mixed(
          kBatchJoins, in.byzantine_joins, in.leaves, kShards);
    } catch (const std::exception& e) {
      now::obs::set_enabled(false);
      result.fail_ops();
      result.wrong(std::string("step_parallel_mixed threw: ") + e.what());
      break;
    }
    const auto t1 = Clock::now();
    step_ms.push_back(cpu_ms() - c0);
    wall_ms.push_back(ms_between(t0, t1));
    spans.close(call);
    if (obs_on) now::obs::set_enabled(false);
    ops += static_cast<double>(kBatchJoins + kBatchLeaves);
    messages += report.cost.messages;
    rounds += report.cost.rounds;
    if (config.trace) {
      Clock::time_point at = t0;
      const std::pair<const char*, std::uint64_t> phases[] = {
          {"core.plan", report.plan_ns},
          {"core.resolve", report.resolve_ns},
          {"core.stage1", report.stage1_ns},
          {"core.stage2", report.stage2_ns}};
      for (const auto& [name, ns] : phases) {
        spans.add(name, step, call, at, ns_to_ms(ns));
        at += std::chrono::nanoseconds(ns);
      }
      reports.push_back(report);
      const std::size_t twin_call =
          spans.open("twin.step_parallel_mixed", step, root);
      twin_reports.push_back(twin->system
                                 .step_parallel_mixed(kBatchJoins,
                                                      in.byzantine_joins,
                                                      in.leaves, 1)
                                 .second);
      spans.close(twin_call);
      if (!same_counts(report, twin_reports.back())) {
        result.fail_ops();
        result.wrong("shards=1 twin report differs at step " +
                     std::to_string(step));
        spans.close(root);
        break;
      }
    }
    bool ok = conserved(system, why);
    if (ok && system.state().byzantine_total() != byzantine_start) {
      ok = false;
      why = "byzantine population drifted";
    }
    if (ok && step % kBatchCheckEvery == kBatchCheckEvery - 1) {
      const std::size_t check = spans.open("core.check", step, root);
      const auto c0 = Clock::now();
      const Sample s = sample_invariants(system);
      check_ms.push_back(ms_between(c0, Clock::now()));
      spans.close(check);
      max_compromised = std::max(max_compromised, s.compromised);
      if (s.structural != 0) {
        ok = false;
        why = "invariant violated: " + s.first_violation;
      }
    }
    spans.close(root);
    if (!ok) {
      result.fail_ops();
      result.wrong("step " + std::to_string(step) + ": " + why);
      break;
    }
    end_ms.push_back(cpu_ms() - cpu_start - probe_ms);
    probe_ms += probe.tick(step_ms.size());
  }

  const Sample final_sample = sample_invariants(system);
  if (final_sample.structural != 0) {
    result.wrong("final invariant violated: " + final_sample.first_violation);
  }
  max_compromised = std::max(max_compromised, final_sample.compromised);
  if (twin && fingerprint(system) != fingerprint(twin->system)) {
    result.wrong("shards=1 twin final state differs from shards=4 state");
  }
  probe.sample(kProbeSamples, step_ms.size());

  if (!config.trace) {
    report_end_to_end(result, probe, setup, step_ms, end_ms, wall_ms,
                      static_cast<double>(kBatchJoins + kBatchLeaves),
                      kBatchTailPercentile, rss_mb);
    return;
  }

  auto phase = [&](auto field) {
    std::vector<double> v;
    for (const OpReport& r : reports) v.push_back(ns_to_ms(r.*field));
    return v;
  };
  auto count = [&](auto field) {
    std::vector<double> v;
    for (const OpReport& r : reports) v.push_back(static_cast<double>(r.*field));
    return mean(v);
  };
  const double steps = static_cast<double>(reports.size());
  const double plan = median(phase(&OpReport::plan_ns));
  const double resolve = median(phase(&OpReport::resolve_ns));
  const double stage1 = median(phase(&OpReport::stage1_ns));
  const double stage2 = median(phase(&OpReport::stage2_ns));
  const double other = median(spans.self_times("core.step_parallel_mixed"));
  print_blocking_path("churn_batch",
                      {{"core.plan_ms", plan},
                       {"core.resolve_ms", resolve},
                       {"core.stage1_ms", stage1},
                       {"core.stage2_ms", stage2},
                       {"core.step_other_ms", other}},
                      median(wall_ms));
  result.metric("core.plan_ms", plan, "ms");
  result.metric("core.resolve_ms", resolve, "ms");
  result.metric("core.stage1_ms", stage1, "ms");
  result.metric("core.stage2_ms", stage2, "ms");
  result.metric("core.step_other_ms", other, "ms");
  result.metric("core.replays_per_step", count(&OpReport::resolve_replays),
                "count");
  result.metric("core.waves_per_step", count(&OpReport::wave_count), "count");
  result.metric("core.spills_per_step", count(&OpReport::stage2_spills),
                "count");
  result.metric("core.conflicts_per_step", count(&OpReport::conflicts),
                "count");
  const auto speedup = [&](std::uint64_t OpReport::*field) {
    std::vector<double> one;
    std::vector<double> many;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      one.push_back(ns_to_ms(twin_reports[i].*field));
      many.push_back(ns_to_ms(reports[i].*field));
    }
    const double m = median(many);
    return m > 0 ? median(one) / m : 0.0;
  };
  result.metric("core.phase_speedup.plan", speedup(&OpReport::plan_ns), "x");
  result.metric("core.phase_speedup.resolve", speedup(&OpReport::resolve_ns),
                "x");
  result.metric("core.phase_speedup.stage1", speedup(&OpReport::stage1_ns),
                "x");
  result.metric("core.phase_speedup.stage2", speedup(&OpReport::stage2_ns),
                "x");
  result.metric("core.bytes_per_node",
                static_cast<double>(system.footprint_bytes()) /
                    static_cast<double>(system.num_nodes()),
                "B");
  result.metric("core.check_ms", median(check_ms), "ms");
  result.metric("core.msgs_per_op",
                ops > 0 ? static_cast<double>(messages) / ops : 0, "count");
  result.metric("core.rounds_per_step",
                steps > 0 ? static_cast<double>(rounds) / steps : 0, "count");
  result.metric("core.compromised_clusters",
                static_cast<double>(max_compromised), "count");
  result.metric("obs.overhead_pct",
                obs_overhead_pct(spans.durations("core.step_parallel_mixed")),
                "%");
  result.metric("host.calib_ms", probe.median_ms(), "ms");
  report_step_shape(result, step_ms, end_ms, kBatchTailPercentile);
  spans.write_chrome_trace(config.work_dir + "/spans_churn_batch.json");
}

// ---------------------------------------------------------------- attack_seq

namespace {

/// The attacker's target: the cluster its nodes already pollute the most
/// (full knowledge, as in the paper's adversary model).
ClusterId most_polluted(const NowSystem& system) {
  const auto& state = system.state();
  ClusterId target = ClusterId::invalid();
  double best = -1;
  for (const ClusterId id : state.cluster_ids()) {
    const auto& c = state.cluster_at(id);
    std::size_t byz = 0;
    for (const NodeId m : c.members()) byz += state.byzantine.contains(m);
    const double p =
        static_cast<double>(byz) / static_cast<double>(std::max<std::size_t>(1, c.size()));
    if (p > best) {
      best = p;
      target = id;
    }
  }
  return target;
}

struct SeqStep {
  NodeId victim;
  bool corrupt_joiner = false;
};

/// One attack step's inputs. Attack steps cycle a Byzantine node that sits
/// outside the target: it leaves, and a Byzantine joiner takes its place
/// wherever the join lands. Background steps remove a uniform node. The
/// joiner is corrupted whenever the tau * (n + 1) budget allows it.
SeqStep make_seq_step(const NowSystem& system, ClusterId& target,
                      InputRng& rng) {
  const auto& state = system.state();
  if (!state.has_cluster(target)) target = most_polluted(system);
  SeqStep s;
  if (rng.unit() >= kBackgroundShare) {
    for (const NodeId b : state.byzantine) {
      if (state.home_of(b) != target) {
        s.victim = b;
        break;
      }
    }
  }
  if (!s.victim.valid()) {
    const auto live = state.live_nodes();
    s.victim = live[rng.below(live.size())];
  }
  const std::size_t byz_after =
      state.byzantine_total() - (state.byzantine.contains(s.victim) ? 1 : 0);
  s.corrupt_joiner = static_cast<double>(byz_after + 1) <=
                     system.params().tau * static_cast<double>(kN0);
  return s;
}

}  // namespace

void run_attack_seq(const RunConfig& config, Result& result) {
  HostProbe probe;
  std::vector<double> setup;
  auto main = set_up(system_seed(config.seed), probe, setup);
  NowSystem& system = main->system;
  InputRng rng(config.seed);
  ClusterId target = most_polluted(system);
  std::string why;

  for (std::size_t i = 0; i < kSeqWarmupSteps; ++i) {
    const SeqStep s = make_seq_step(system, target, rng);
    (void)system.leave(s.victim);
    (void)system.join(s.corrupt_joiner);
  }

  SpanLog spans;
  std::vector<double> step_ms;
  std::vector<double> end_ms;
  std::vector<double> call_ms;  // leave + join, for the paired obs overhead
  std::vector<double> check_ms;
  std::vector<double> restructure_ms;
  std::size_t restructures = 0;
  std::size_t max_compromised = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  double ops = 0;
  double rss_mb = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  std::vector<double> wall_ms;
  double probe_ms = 0;  // HostProbe CPU time inside the timed phase
  const double cpu_start = cpu_ms();
  for (std::uint64_t step = 0; Clock::now() < deadline; ++step) {
    result.attempt();
    const std::size_t root = config.trace ? spans.open("step", step) : 0;
    const std::size_t gen =
        config.trace ? spans.open("gen", step, root) : 0;
    const SeqStep s = make_seq_step(system, target, rng);
    if (config.trace) spans.close(gen);
    const bool obs_on = config.trace && step % 2 == 1;
    if (obs_on) now::obs::set_enabled(true);
    OpReport left;
    OpReport joined;
    const double c0 = cpu_ms();
    const auto t0 = Clock::now();
    Clock::time_point t1;
    try {
      const std::size_t leave_span =
          config.trace ? spans.open("core.leave", step, root) : 0;
      left = system.leave(s.victim);
      t1 = Clock::now();
      if (config.trace) spans.close(leave_span);
      const std::size_t join_span =
          config.trace ? spans.open("core.join", step, root) : 0;
      joined = system.join(s.corrupt_joiner).second;
      if (config.trace) spans.close(join_span);
    } catch (const std::exception& e) {
      now::obs::set_enabled(false);
      result.fail_ops();
      result.wrong(std::string("leave/join threw: ") + e.what());
      break;
    }
    const auto t2 = Clock::now();
    step_ms.push_back(cpu_ms() - c0);
    wall_ms.push_back(ms_between(t0, t2));
    if (obs_on) now::obs::set_enabled(false);
    ops += 2;
    messages += left.cost.messages + joined.cost.messages;
    rounds += left.cost.rounds + joined.cost.rounds;
    for (const auto& [report, ms] :
         {std::pair{&left, ms_between(t0, t1)},
          std::pair{&joined, ms_between(t1, t2)}}) {
      if (report->splits + report->merges > 0) {
        ++restructures;
        restructure_ms.push_back(ms);
      }
    }
    bool ok = conserved(system, why);
    if (ok && step % kSeqCheckEvery == kSeqCheckEvery - 1) {
      const std::size_t check =
          config.trace ? spans.open("core.check", step, root) : 0;
      const auto c0 = Clock::now();
      const Sample sample = sample_invariants(system);
      check_ms.push_back(ms_between(c0, Clock::now()));
      if (config.trace) spans.close(check);
      max_compromised = std::max(max_compromised, sample.compromised);
      if (sample.structural != 0) {
        ok = false;
        why = "invariant violated: " + sample.first_violation;
      }
    }
    if (config.trace) spans.close(root);
    if (!ok) {
      result.fail_ops();
      result.wrong("step " + std::to_string(step) + ": " + why);
      break;
    }
    if (step + 1 == kSeqRssStep) rss_mb = self_peak_rss_mb();
    end_ms.push_back(cpu_ms() - cpu_start - probe_ms);
    probe_ms += probe.tick(step_ms.size());
  }
  if (rss_mb == 0) rss_mb = self_peak_rss_mb();
  const Sample final_sample = sample_invariants(system);
  if (final_sample.structural != 0) {
    result.wrong("final invariant violated: " + final_sample.first_violation);
  }
  max_compromised = std::max(max_compromised, final_sample.compromised);
  probe.sample(kProbeSamples, step_ms.size());

  if (!config.trace) {
    report_end_to_end(result, probe, setup, step_ms, end_ms, wall_ms, 2,
                      kSeqTailPercentile, rss_mb);
    return;
  }

  const double join = median(spans.durations("core.join"));
  const double leave = median(spans.durations("core.leave"));
  std::vector<double> call_other;
  {
    const auto leaves = spans.durations("core.leave");
    const auto joins = spans.durations("core.join");
    for (std::size_t i = 0; i < wall_ms.size() && i < leaves.size(); ++i) {
      call_other.push_back(wall_ms[i] - leaves[i] - joins[i]);
    }
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      call_ms.push_back(leaves[i] + joins[i]);
    }
  }
  const double other = median(call_other);
  print_blocking_path("attack_seq",
                      {{"core.leave_ms", leave},
                       {"core.join_ms", join},
                       {"core.seq_other_ms", other}},
                      median(wall_ms));
  result.metric("core.join_ms", join, "ms");
  result.metric("core.leave_ms", leave, "ms");
  result.metric("core.seq_other_ms", other, "ms");
  result.metric("core.restructure_ms", mean(restructure_ms), "ms");
  result.metric("core.restructures_per_kop",
                ops > 0 ? 1000.0 * static_cast<double>(restructures) / ops : 0,
                "count");
  result.metric("core.check_ms", median(check_ms), "ms");
  result.metric("core.msgs_per_op",
                ops > 0 ? static_cast<double>(messages) / ops : 0, "count");
  result.metric("core.rounds_per_step",
                step_ms.empty()
                    ? 0
                    : static_cast<double>(rounds) /
                          static_cast<double>(step_ms.size()),
                "count");
  result.metric("core.compromised_clusters",
                static_cast<double>(max_compromised), "count");
  result.metric("core.bytes_per_node",
                static_cast<double>(system.footprint_bytes()) /
                    static_cast<double>(system.num_nodes()),
                "B");
  result.metric("obs.overhead_pct", obs_overhead_pct(call_ms), "%");
  result.metric("host.calib_ms", probe.median_ms(), "ms");
  report_step_shape(result, step_ms, end_ms, kSeqTailPercentile);
  spans.write_chrome_trace(config.work_dir + "/spans_attack_seq.json");
}

}  // namespace perfbench
