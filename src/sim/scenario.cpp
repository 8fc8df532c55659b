#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/math_util.hpp"
#include "sim/trace.hpp"

namespace now::sim {

namespace {

/// Forced-leave DoS victims (ScenarioConfig::batch_leave_quota): honest
/// members of the worst (highest Byzantine fraction) cluster first — the
/// batched form of the ForcedLeaveAdversary, stripping the cluster's honest
/// majority while corrupted joiners queue up — then members of the smallest
/// cluster, pushing it toward the merge threshold (restructuring DoS).
/// Returns the number of victims appended (<= quota).
std::size_t pick_forced_leave_victims(const core::NowSystem& system,
                                      std::size_t quota,
                                      std::vector<NodeId>& victims) {
  const auto& state = system.state();
  if (quota == 0 || system.num_clusters() < 2) return 0;
  const ClusterId worst = state.most_byzantine_cluster();
  ClusterId smallest = ClusterId::invalid();
  std::size_t smallest_size = static_cast<std::size_t>(-1);
  for (const ClusterId c : state.cluster_ids()) {
    const std::size_t size = state.cluster_at(c).size();
    if (size < smallest_size) {
      smallest_size = size;
      smallest = c;
    }
  }
  const std::size_t before = victims.size();
  for (const NodeId member : state.cluster_at(worst).members()) {
    if (victims.size() - before >= quota) break;
    if (!state.byzantine.contains(member)) victims.push_back(member);
  }
  if (smallest != worst) {
    for (const NodeId member : state.cluster_at(smallest).members()) {
      if (victims.size() - before >= quota) break;
      victims.push_back(member);
    }
  }
  return victims.size() - before;
}

/// What one adversarial batch step did, beyond the state change: the
/// forced-leave count, whether the global corruption budget clipped the
/// requested volume, and the engine's OpReport (resolve replays / spills
/// feed the coverage signature).
struct BatchOutcome {
  std::size_t forced = 0;
  bool budget_saturated = false;
  core::OpReport report;
};

/// One time step of the batched adversary: corrupt a batch_byz_fraction of
/// the joiners (within the static adversary's global budget tau * n),
/// force up to batch_leave_quota leave victims out of the worst/smallest
/// clusters, and, under BatchPlacement::kTargeted, churn the adversary's
/// own misplaced nodes — Byzantine nodes outside the currently
/// most-corrupted cluster leave so their replacements can re-roll the
/// placement walk, the batched form of Section 3.3's join-leave attack.
BatchOutcome run_adversarial_batch(const ScenarioConfig& config,
                                   const adversary::Adversary& adversary,
                                   core::NowSystem& system, std::size_t ops,
                                   Rng& rng) {
  const auto& state = system.state();
  const double budget =
      adversary.tau() * static_cast<double>(system.num_nodes() + ops);
  const std::size_t budget_left = static_cast<std::size_t>(std::max(
      0.0, std::floor(budget) -
               static_cast<double>(state.byzantine_total())));
  const auto requested = static_cast<std::size_t>(
      std::floor(config.batch_byz_fraction * static_cast<double>(ops)));
  const std::size_t byz_joins = std::min({ops, budget_left, requested});

  BatchOutcome outcome;
  outcome.budget_saturated = requested > 0 && byz_joins < requested;

  std::vector<NodeId> victims;
  outcome.forced = pick_forced_leave_victims(
      system, std::min(config.batch_leave_quota, ops), victims);
  const std::size_t forced = outcome.forced;
  if (config.batch_placement == BatchPlacement::kTargeted &&
      state.byzantine_total() > 0 && system.num_clusters() > 1) {
    // Full knowledge: target the cluster that is already worst.
    const ClusterId target = state.most_byzantine_cluster();
    // Churn the adversary's misplaced nodes first (deterministic NodeSet
    // order), keep the ones that already landed in the target; skip any
    // the forced-leave quota already claimed.
    for (const NodeId b : state.byzantine) {
      if (victims.size() >= ops) break;
      if (state.home_of(b) == target) continue;
      if (std::find(victims.begin(), victims.end(), b) != victims.end()) {
        continue;
      }
      victims.push_back(b);
    }
    // Fill the quota with uniform honest victims, distinct from every
    // earlier pick (forced honest victims count against the honest pool).
    std::size_t honest_victims = 0;
    for (const NodeId v : victims) {
      if (!state.byzantine.contains(v)) ++honest_victims;
    }
    const std::size_t honest_pool =
        system.num_nodes() - state.byzantine_total();
    while (victims.size() < ops && honest_victims < honest_pool) {
      const NodeId candidate = state.random_honest_node(rng);
      if (std::find(victims.begin(), victims.end(), candidate) ==
          victims.end()) {
        victims.push_back(candidate);
        ++honest_victims;
      }
    }
  } else if (forced == 0) {
    victims = state.sample_distinct_nodes(rng, ops);
  } else {
    // Uniform remainder (Byzantine victims allowed, as in the quota-less
    // path), distinct from the forced picks.
    while (victims.size() < ops) {
      const NodeId candidate = state.random_node(rng);
      if (std::find(victims.begin(), victims.end(), candidate) ==
          victims.end()) {
        victims.push_back(candidate);
      }
    }
  }
  outcome.report =
      system.step_parallel_mixed(ops, byz_joins, victims, config.shards)
          .second;
  return outcome;
}

}  // namespace

InvariantSample make_sample(std::size_t step,
                            const core::InvariantReport& report) {
  InvariantSample s;
  s.step = step;
  s.num_nodes = report.num_nodes;
  s.num_clusters = report.num_clusters;
  s.min_cluster_size = report.min_cluster_size;
  s.max_cluster_size = report.max_cluster_size;
  s.worst_byz_fraction = report.worst_byz_fraction;
  s.compromised_clusters = report.compromised_clusters;
  s.overlay_max_degree = report.overlay_max_degree;
  s.overlay_connected = report.overlay_connected;
  return s;
}

void fold_sample(ScenarioResult& result, const InvariantSample& sample) {
  result.samples.push_back(sample);
  result.peak_byz_fraction =
      std::max(result.peak_byz_fraction, sample.worst_byz_fraction);
  if (sample.compromised_clusters > 0 && !result.ever_compromised) {
    result.ever_compromised = true;
    result.first_compromise_step = sample.step;
  }
}

ScenarioResult run_scenario(const ScenarioConfig& config,
                            adversary::Adversary& adversary,
                            Metrics& metrics) {
  core::NowSystem system{config.params, metrics, config.seed};
  Rng driver_rng{config.seed ^ 0xC0FFEE5EEDULL};

  const std::size_t n0 =
      config.n0 > 0 ? config.n0
                    : static_cast<std::size_t>(
                          isqrt(config.params.max_size));
  const double byz_fraction = config.initial_byz_fraction >= 0.0
                                  ? config.initial_byz_fraction
                                  : adversary.tau();
  const auto byz0 = static_cast<std::size_t>(
      std::floor(byz_fraction * static_cast<double>(n0)));

  ScenarioResult result;
  // Split/merge totals are attributed to THIS scenario: counts already in
  // the caller's metrics (or restored from a checkpoint) are offset out.
  std::size_t start_step = 0;
  std::size_t splits_offset = 0;
  std::size_t merges_offset = 0;
  const OperationId split_op = metrics.intern("split");
  const OperationId merge_op = metrics.intern("merge");
  const std::size_t splits_at_entry = metrics.operation_count(split_op);
  const std::size_t merges_at_entry = metrics.operation_count(merge_op);

  if (!config.resume_from.empty()) {
    const ScenarioResume resume = load_scenario_checkpoint(
        config, adversary, system, driver_rng, result, config.resume_from);
    start_step = resume.step;
    splits_offset = resume.splits_so_far;
    merges_offset = resume.merges_so_far;
  } else {
    system.initialize(n0, byz0, config.topology);
  }

  // Traces must cover the whole run to be replayable, so resumed runs
  // and halt-and-checkpoint runs (which stop before the horizon) do not
  // record — a half-written trace would fail replay anyway.
  std::unique_ptr<TraceRecorder> recorder;
  if (!config.trace_path.empty() && start_step == 0 &&
      config.halt_at == 0) {
    recorder = std::make_unique<TraceRecorder>(config, n0, byz0,
                                               adversary.name());
    system.set_trace_sink(recorder.get());
  }

  const auto sample_now = [&](std::size_t step) {
    const InvariantSample s = make_sample(step, system.check());
    fold_sample(result, s);
    if (recorder != nullptr) recorder->record_sample(s);
  };
  const auto finalize = [&] {
    result.total_splits = splits_offset +
                          metrics.operation_count(split_op) -
                          splits_at_entry;
    result.total_merges = merges_offset +
                          metrics.operation_count(merge_op) -
                          merges_at_entry;
    result.final_nodes = system.num_nodes();
    result.final_clusters = system.num_clusters();
    result.final_byzantine = system.state().byzantine_total();
    result.total_compactions = system.state().member_slab().compaction_count();
  };
  // Trace embedded-checkpoint cadence: ~8 checkpoints across the horizon
  // keep bisection cost O(log steps) without ballooning short traces.
  const std::size_t trace_ckpt_every =
      std::max<std::size_t>(8, config.steps / 8);

  if (start_step == 0) sample_now(0);
  for (std::size_t t = start_step + 1; t <= config.steps; ++t) {
    if (recorder != nullptr) recorder->begin_step(t);
    if (config.batch_ops > 0) {
      // Joins always match leaves so the batch is size-neutral; on a tiny
      // network the whole batch shrinks rather than going joins-heavy.
      const std::size_t ops = std::min(
          config.batch_ops,
          system.num_nodes() > 2 ? system.num_nodes() - 2 : 0);
      if (config.batch_byz_fraction > 0.0 || config.batch_leave_quota > 0) {
        const BatchOutcome outcome =
            run_adversarial_batch(config, adversary, system, ops, driver_rng);
        result.total_forced_leaves += outcome.forced;
        result.max_step_forced_leaves =
            std::max(result.max_step_forced_leaves, outcome.forced);
        result.total_resolve_replays += outcome.report.resolve_replays;
        result.total_stage2_spills += outcome.report.stage2_spills;
        if (outcome.budget_saturated) ++result.budget_saturated_steps;
      } else {
        const std::vector<NodeId> victims =
            system.state().sample_distinct_nodes(driver_rng, ops);
        const auto report =
            system
                .step_parallel_mixed(ops, /*byzantine_joins=*/0, victims,
                                     config.shards)
                .second;
        result.total_resolve_replays += report.resolve_replays;
        result.total_stage2_spills += report.stage2_spills;
      }
    } else {
      adversary.step(system, t, driver_rng);
    }
    if (t % config.sample_every == 0 || t == config.steps) sample_now(t);
    if (recorder != nullptr && t % trace_ckpt_every == 0 &&
        t != config.steps) {
      // Embed a full system snapshot plus the run's partial aggregates, so
      // a replay seeked here can reproduce the end summary exactly.
      recorder->record_checkpoint(
          t, system,
          splits_offset + metrics.operation_count(split_op) - splits_at_entry,
          merges_offset + metrics.operation_count(merge_op) - merges_at_entry,
          result);
    }
    if (config.halt_at == t && !config.checkpoint_path.empty()) {
      // Checkpoint-and-stop: the partial result reports the state at the
      // halt; a --resume run completes the horizon bit-identically.
      save_scenario_checkpoint(
          config, adversary, system, driver_rng, result, t,
          splits_offset + metrics.operation_count(split_op) - splits_at_entry,
          merges_offset + metrics.operation_count(merge_op) - merges_at_entry,
          config.checkpoint_path);
      system.set_trace_sink(nullptr);
      result.halted_at_step = t;
      finalize();
      return result;
    }
  }

  finalize();
  if (recorder != nullptr) {
    system.set_trace_sink(nullptr);
    recorder->finish(result, config.trace_path);
  }
  return result;
}

}  // namespace now::sim
