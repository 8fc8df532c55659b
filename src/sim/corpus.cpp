#include "sim/corpus.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>

#include "adversary/adversary.hpp"
#include "adversary/schedule.hpp"
#include "sim/trace.hpp"

namespace now::sim {

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone: return "none";
    case FailureKind::kCompromise: return "compromise";
    case FailureKind::kDisconnect: return "disconnect";
    case FailureKind::kBudgetBreach: return "budget_breach";
  }
  return "unknown";
}

FailureKind classify_failure(double tau, const ScenarioResult& result) {
  if (result.ever_compromised) return FailureKind::kCompromise;
  for (const InvariantSample& s : result.samples) {
    if (!s.overlay_connected) return FailureKind::kDisconnect;
  }
  // Static-adversary budget: the corpus only drives within-model
  // adversaries, so a breached budget is an engine bug, not an attack win.
  const double budget =
      tau * static_cast<double>(result.final_nodes) + 1.0;
  if (static_cast<double>(result.final_byzantine) > budget) {
    return FailureKind::kBudgetBreach;
  }
  return FailureKind::kNone;
}

// ------------------------------------------------------------- coverage

CoverageCell cell_of(const ScenarioConfig& config) {
  CoverageCell cell;
  // kComplete initializations fold into the modeled bucket — the corpus
  // never draws them, and the cell space stays dense.
  cell.topology =
      config.topology == core::InitTopology::kSparseRandom ? 0 : 1;
  cell.placement =
      config.batch_placement == BatchPlacement::kTargeted ? 1 : 0;
  cell.merge_policy =
      config.params.merge_policy == core::MergePolicy::kAbsorb ? 1 : 0;
  cell.threshold_mode =
      config.params.threshold_mode == core::ThresholdMode::kDynamicCurrentN
          ? 1
          : 0;
  cell.walk_mode =
      config.params.walk_mode == core::WalkMode::kSampleExact ? 1 : 0;
  if (config.batch_leave_quota == 0) {
    cell.quota_bucket = 0;
  } else if (config.batch_ops > 0 &&
             config.batch_leave_quota >= config.batch_ops) {
    cell.quota_bucket = 2;
  } else {
    cell.quota_bucket = 1;
  }
  return cell;
}

std::uint32_t CoverageSignature::cell_key() const {
  std::uint32_t key = cell.topology;
  key = key * 2 + cell.placement;
  key = key * 2 + cell.merge_policy;
  key = key * 2 + cell.threshold_mode;
  key = key * 2 + cell.walk_mode;
  key = key * 3 + cell.quota_bucket;
  return key;
}

std::uint32_t CoverageSignature::key() const {
  return cell_key() * 64 + behavior;
}

CoverageCell cell_from_key(std::uint32_t key) {
  CoverageCell cell;
  cell.quota_bucket = static_cast<std::uint8_t>(key % 3);
  key /= 3;
  cell.walk_mode = static_cast<std::uint8_t>(key % 2);
  key /= 2;
  cell.threshold_mode = static_cast<std::uint8_t>(key % 2);
  key /= 2;
  cell.merge_policy = static_cast<std::uint8_t>(key % 2);
  key /= 2;
  cell.placement = static_cast<std::uint8_t>(key % 2);
  key /= 2;
  cell.topology = static_cast<std::uint8_t>(key % 2);
  return cell;
}

CoverageSignature signature_of(const ScenarioConfig& config,
                               const ScenarioResult& result) {
  CoverageSignature sig;
  sig.cell = cell_of(config);
  if (result.total_splits > 0) sig.behavior |= kBehaviorSplit;
  if (result.total_merges > 0) sig.behavior |= kBehaviorMerge;
  if (result.total_compactions > 0) sig.behavior |= kBehaviorCompaction;
  if (result.total_stage2_spills > 0) sig.behavior |= kBehaviorStage2Spill;
  if (result.total_resolve_replays > 0) {
    sig.behavior |= kBehaviorResolveReplay;
  }
  if (result.budget_saturated_steps > 0) {
    sig.behavior |= kBehaviorBudgetSaturated;
  }
  return sig;
}

ScenarioConfig mutate_toward_cell(const ScenarioConfig& parent,
                                  const CoverageCell& target) {
  ScenarioConfig config = parent;
  config.trace_path.clear();
  config.topology = target.topology == 0
                        ? core::InitTopology::kSparseRandom
                        : core::InitTopology::kModeledSparse;
  config.batch_placement = target.placement == 1
                               ? BatchPlacement::kTargeted
                               : BatchPlacement::kUniform;
  config.params.merge_policy = target.merge_policy == 1
                                   ? core::MergePolicy::kAbsorb
                                   : core::MergePolicy::kDissolve;
  config.params.threshold_mode =
      target.threshold_mode == 1 ? core::ThresholdMode::kDynamicCurrentN
                                 : core::ThresholdMode::kStaticN;
  config.params.walk_mode = target.walk_mode == 1
                                ? core::WalkMode::kSampleExact
                                : core::WalkMode::kSimulate;
  if (config.params.walk_mode == core::WalkMode::kSimulate) {
    // Simulated walks flood real messages; keep the population small so a
    // targeted run stays cheap.
    config.n0 = std::min<std::size_t>(config.n0, 350);
  }
  switch (target.quota_bucket) {
    case 0:
      config.batch_leave_quota = 0;
      break;
    case 1:
      // Partial quota needs batch_ops >= 2 to be distinguishable from
      // "full"; the mutation may raise batch_ops to realize the bucket.
      config.batch_ops = std::max<std::size_t>(config.batch_ops, 2);
      config.batch_leave_quota =
          std::clamp<std::size_t>(config.batch_ops / 2, 1,
                                  config.batch_ops - 1);
      break;
    default:
      config.batch_ops = std::max<std::size_t>(config.batch_ops, 1);
      config.batch_leave_quota = config.batch_ops;
      break;
  }
  return config;
}

// --------------------------------------------------------------- corpus

ScenarioConfig random_scenario_config(Rng& rng, const CorpusAxes& axes) {
  ScenarioConfig config;
  config.params.max_size = 1 << 12;
  // k scaled with tau's slack the way Lemma 1 prescribes, so the corpus
  // samples the paper's whp regime (plus its edges), not trivially-broken
  // configurations.
  const double taus[] = {0.05, 0.10, 0.15};
  config.params.tau = taus[rng.uniform(3)];
  config.params.k = 8 + static_cast<int>(rng.uniform(3)) * 2;  // 8|10|12
  // Engine behavior axes — each value must appear in the wild for the
  // coverage map to mean anything.
  config.params.walk_mode = rng.uniform(2) == 0
                                ? core::WalkMode::kSimulate
                                : core::WalkMode::kSampleExact;
  config.params.merge_policy = rng.uniform(2) == 0
                                   ? core::MergePolicy::kDissolve
                                   : core::MergePolicy::kAbsorb;
  config.params.threshold_mode =
      rng.uniform(2) == 0 ? core::ThresholdMode::kStaticN
                          : core::ThresholdMode::kDynamicCurrentN;
  config.topology = rng.uniform(4) == 0
                        ? core::InitTopology::kSparseRandom
                        : core::InitTopology::kModeledSparse;
  config.n0 = config.topology == core::InitTopology::kSparseRandom
                  ? 300 + rng.uniform(101)     // message-level flood: small
                  : 600 + rng.uniform(601);    // modeled: up to 1200
  if (config.params.walk_mode == core::WalkMode::kSimulate) {
    config.n0 = std::min<std::size_t>(config.n0, 350);
  }
  config.steps = axes.min_steps +
                 rng.uniform(axes.max_steps - axes.min_steps + 1);
  config.sample_every = rng.uniform(2) == 0 ? 5 : 10;
  config.seed = rng.next();
  config.batch_ops = 2 + rng.uniform(9);  // 2..10
  const std::size_t shard_axis[] = {1, 2, 4, 8};
  config.shards = shard_axis[rng.uniform(4)];
  // Corruption volume within the budget; placement and the forced-leave
  // quota pick the attack flavor.
  config.batch_byz_fraction = rng.uniform01() * config.params.tau;
  config.batch_placement = rng.uniform(2) == 0 ? BatchPlacement::kUniform
                                               : BatchPlacement::kTargeted;
  config.batch_leave_quota = rng.uniform(config.batch_ops + 1);
  return config;
}

ScenarioResult run_corpus_scenario(ScenarioConfig config,
                                   const std::string& trace_path) {
  config.trace_path = trace_path;
  Metrics metrics;
  // The driver adversary only supplies the corruption budget tau; the
  // per-step moves come from the batched placement policy.
  adversary::RandomChurnAdversary adversary{
      config.params.tau, adversary::ChurnSchedule::hold(config.n0)};
  return run_scenario(config, adversary, metrics);
}

ScenarioConfig shrink_failing_config(const ScenarioConfig& failing,
                                     std::size_t* rounds_out) {
  ScenarioConfig best = failing;
  best.trace_path.clear();
  // Kind-preserving shrink: a reduction only counts while the run still
  // fails the SAME way the original did.
  const FailureKind kind = classify_failure(
      failing.params.tau, run_corpus_scenario(best, ""));
  std::size_t rounds = 0;
  bool reduced = kind != FailureKind::kNone;
  while (reduced && rounds < 40) {
    reduced = false;
    std::vector<ScenarioConfig> candidates;
    if (best.steps >= 20) {
      ScenarioConfig c = best;
      c.steps /= 2;
      candidates.push_back(c);
    }
    if (best.batch_ops >= 2) {
      ScenarioConfig c = best;
      c.batch_ops /= 2;
      c.batch_leave_quota = std::min(c.batch_leave_quota, c.batch_ops);
      candidates.push_back(c);
    }
    if (best.n0 >= 400) {
      ScenarioConfig c = best;
      c.n0 = c.n0 * 3 / 4;
      candidates.push_back(c);
    }
    for (const ScenarioConfig& candidate : candidates) {
      const ScenarioResult result = run_corpus_scenario(candidate, "");
      if (classify_failure(candidate.params.tau, result) == kind) {
        best = candidate;
        ++rounds;
        reduced = true;
        break;
      }
    }
  }
  if (rounds_out != nullptr) *rounds_out = rounds;
  return best;
}

std::vector<CorpusCase> generate_corpus(const CorpusAxes& axes,
                                        const std::string& out_dir) {
  std::filesystem::create_directories(out_dir);
  Rng rng{axes.master_seed};
  std::vector<CorpusCase> cases;
  cases.reserve(axes.count);
  for (std::size_t i = 0; i < axes.count; ++i) {
    CorpusCase c;
    c.config = random_scenario_config(rng, axes);
    // Stratify the behavior axes so even a small corpus covers each value
    // at least once (the randomizer alone can miss one in 6 draws).
    c.config.params.merge_policy = i % 2 == 0
                                       ? core::MergePolicy::kDissolve
                                       : core::MergePolicy::kAbsorb;
    c.config.params.threshold_mode =
        (i / 2) % 2 == 0 ? core::ThresholdMode::kStaticN
                         : core::ThresholdMode::kDynamicCurrentN;
    c.config.params.walk_mode = (i / 4) % 2 == 0
                                    ? core::WalkMode::kSampleExact
                                    : core::WalkMode::kSimulate;
    if (c.config.params.walk_mode == core::WalkMode::kSimulate) {
      c.config.n0 = std::min<std::size_t>(c.config.n0, 350);
    }
    std::string suffix = std::to_string(i);
    while (suffix.size() < 3) suffix.insert(suffix.begin(), '0');
    c.name = "corpus_" + suffix;
    c.trace_file = c.name + ".trace";
    const std::string path = out_dir + "/" + c.trace_file;
    c.result = run_corpus_scenario(c.config, path);
    c.failure = classify_failure(c.config.params.tau, c.result);
    c.failing = c.failure != FailureKind::kNone;
    if (c.failing) {
      // Shrink to the minimal reproducer and record ITS trace instead —
      // the checked-in corpus carries the smallest scenario that still
      // demonstrates the violation.
      c.config = shrink_failing_config(c.config, &c.shrink_rounds);
      c.result = run_corpus_scenario(c.config, path);
      c.failure = classify_failure(c.config.params.tau, c.result);
      c.name += "_min";
    }
    c.signature = signature_of(c.config, c.result);
    cases.push_back(std::move(c));
  }
  write_corpus_manifest(cases, out_dir);
  return cases;
}

void write_corpus_manifest(const std::vector<CorpusCase>& cases,
                           const std::string& out_dir) {
  std::ofstream os(out_dir + "/MANIFEST.tsv");
  os << "name\ttrace_file\tformat\tfailure\tshrink_rounds\tsig_key\t"
        "cell_key\tsteps\tn0\tseed\tbatch_ops\tshards\n";
  for (const CorpusCase& c : cases) {
    os << c.name << '\t' << c.trace_file << '\t'
       << kTraceFormatVersion << '\t'
       << failure_kind_name(c.failure) << '\t' << c.shrink_rounds << '\t'
       << c.signature.key() << '\t' << c.signature.cell_key() << '\t'
       << c.config.steps << '\t' << c.config.n0 << '\t' << c.config.seed
       << '\t' << c.config.batch_ops << '\t' << c.config.shards << '\n';
  }
}

// ---------------------------------------------------------------- fleet

FleetResult run_coverage_fleet(const FleetOptions& options) {
  FleetResult out;
  Rng rng{options.seed};
  // One parent supplies the continuous knobs (tau, k, population,
  // corruption volume); each run rewrites the discrete axes to land on a
  // specific unexplored cell.
  ScenarioConfig parent = random_scenario_config(rng, options.axes);
  parent.batch_ops = std::max<std::size_t>(parent.batch_ops, 2);

  std::set<std::uint32_t> seen_cells;
  std::set<std::uint32_t> seen_signatures;
  // Deterministic but seed-dependent visiting order over the cell space.
  const std::uint32_t offset = static_cast<std::uint32_t>(
      rng.uniform(kNumConfigCells));
  std::uint32_t cursor = 0;

  while (out.steps_spent + options.steps_per_run <= options.step_budget) {
    // Next unexplored config cell; once the whole space is visited
    // (budget permitting), fall back to fresh random parents.
    std::uint32_t target_key = kNumConfigCells;
    while (cursor < kNumConfigCells) {
      const std::uint32_t key = (offset + cursor) % kNumConfigCells;
      ++cursor;
      if (seen_cells.find(key) == seen_cells.end()) {
        target_key = key;
        break;
      }
    }
    ScenarioConfig config;
    if (target_key < kNumConfigCells) {
      config = mutate_toward_cell(parent, cell_from_key(target_key));
    } else {
      config = random_scenario_config(rng, options.axes);
    }
    config.steps = options.steps_per_run;
    config.sample_every = 4;
    config.seed = rng.next();

    FleetRun run;
    run.config = config;
    run.steps = config.steps;
    const ScenarioResult result = run_corpus_scenario(config, "");
    run.signature = signature_of(config, result);
    run.failure = classify_failure(config.params.tau, result);
    seen_cells.insert(run.signature.cell_key());
    seen_signatures.insert(run.signature.key());
    out.steps_spent += config.steps;

    if (run.failure != FailureKind::kNone) {
      CorpusCase failure;
      failure.config = config;
      failure.result = result;
      failure.failing = true;
      failure.failure = run.failure;
      if (options.shrink_failures) {
        failure.config =
            shrink_failing_config(config, &failure.shrink_rounds);
        failure.result = run_corpus_scenario(failure.config, "");
        failure.failure = classify_failure(failure.config.params.tau,
                                           failure.result);
      }
      failure.signature = signature_of(failure.config, failure.result);
      out.failures.push_back(std::move(failure));
    }
    out.runs.push_back(std::move(run));
  }
  out.distinct_cells = seen_cells.size();
  out.distinct_signatures = seen_signatures.size();
  return out;
}

void write_coverage_report(const FleetResult& result, std::ostream& os) {
  os << "{\n";
  os << "  \"runs\": " << result.runs.size() << ",\n";
  os << "  \"steps_spent\": " << result.steps_spent << ",\n";
  os << "  \"total_config_cells\": " << kNumConfigCells << ",\n";
  os << "  \"distinct_cells\": " << result.distinct_cells << ",\n";
  os << "  \"distinct_signatures\": " << result.distinct_signatures
     << ",\n";
  os << "  \"failures\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    const CorpusCase& f = result.failures[i];
    os << (i == 0 ? "" : ",") << "\n    {\"kind\": \""
       << failure_kind_name(f.failure) << "\", \"cell\": "
       << f.signature.cell_key() << ", \"steps\": " << f.config.steps
       << ", \"n0\": " << f.config.n0 << ", \"seed\": " << f.config.seed
       << ", \"shrink_rounds\": " << f.shrink_rounds << "}";
  }
  os << (result.failures.empty() ? "" : "\n  ") << "],\n";
  os << "  \"cells\": [";
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const FleetRun& r = result.runs[i];
    os << (i == 0 ? "" : ",") << "\n    {\"cell\": "
       << r.signature.cell_key() << ", \"behavior\": "
       << static_cast<unsigned>(r.signature.behavior) << ", \"failure\": \""
       << failure_kind_name(r.failure) << "\", \"seed\": "
       << r.config.seed << "}";
  }
  os << (result.runs.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
}

}  // namespace now::sim
