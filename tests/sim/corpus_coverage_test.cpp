// Coverage accounting for the corpus fleet (sim/corpus.hpp): deterministic
// signature extraction, dense cell-key round trips, one-mutation
// reachability of any named unexplored cell, kind-preserving shrinking,
// stratified corpus generation, the fleet-vs-random acceptance bound
// (>= 2x the distinct signature cells of 6 random scenarios under the
// same simulated-step budget, fixed seed), and a clean replay of the
// checked-in bench/corpus traces.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/corpus.hpp"
#include "sim/trace.hpp"

namespace now::sim {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(CoverageTest, CellKeysRoundTripTheWholeSpace) {
  std::set<std::uint32_t> seen;
  for (std::uint32_t key = 0; key < kNumConfigCells; ++key) {
    CoverageSignature sig;
    sig.cell = cell_from_key(key);
    EXPECT_EQ(sig.cell_key(), key);
    seen.insert(sig.cell_key());
  }
  EXPECT_EQ(seen.size(), kNumConfigCells);
}

TEST(CoverageTest, SignatureExtractionIsDeterministic) {
  Rng rng{7};
  CorpusAxes axes;
  axes.min_steps = 10;
  axes.max_steps = 14;
  ScenarioConfig config = random_scenario_config(rng, axes);
  config.n0 = 300;

  const ScenarioResult a = run_corpus_scenario(config, "");
  const ScenarioResult b = run_corpus_scenario(config, "");
  const CoverageSignature sig_a = signature_of(config, a);
  const CoverageSignature sig_b = signature_of(config, b);
  EXPECT_EQ(sig_a, sig_b);
  EXPECT_LT(sig_a.cell_key(), kNumConfigCells);
  // The cell part is a pure function of the config.
  EXPECT_EQ(sig_a.cell, cell_of(config));
  // key() packs cell and behavior losslessly.
  EXPECT_EQ(sig_a.key() / 64, sig_a.cell_key());
  EXPECT_EQ(sig_a.key() % 64, sig_a.behavior);
}

TEST(CoverageTest, MutationReachesANamedUnexploredCellInOneStep) {
  Rng rng{11};
  CorpusAxes axes;
  const ScenarioConfig parent = random_scenario_config(rng, axes);
  // Every cell in the space is reachable with exactly one mutation — the
  // bounded-budget guarantee: targeting a named unexplored cell never
  // takes more than one run.
  for (std::uint32_t key = 0; key < kNumConfigCells; key += 13) {
    const CoverageCell target = cell_from_key(key);
    const ScenarioConfig mutated = mutate_toward_cell(parent, target);
    EXPECT_EQ(cell_of(mutated), target) << "cell key " << key;
  }
}

TEST(CoverageTest, FleetDoublesRandomSamplingCoverage) {
  // Acceptance: under the SAME total simulated-step budget, the
  // coverage-guided fleet reaches at least 2x the distinct signature
  // cells of 6 random scenarios. Fixed seeds; everything deterministic.
  CorpusAxes axes;
  axes.master_seed = 20260808;
  axes.min_steps = 20;
  axes.max_steps = 30;

  Rng rng{axes.master_seed};
  std::set<std::uint32_t> random_cells;
  std::size_t random_steps = 0;
  for (int i = 0; i < 6; ++i) {
    const ScenarioConfig config = random_scenario_config(rng, axes);
    const ScenarioResult result = run_corpus_scenario(config, "");
    random_cells.insert(signature_of(config, result).key());
    random_steps += config.steps;
  }

  FleetOptions options;
  options.seed = axes.master_seed;
  options.axes = axes;
  options.step_budget = random_steps;
  options.steps_per_run = 10;
  const FleetResult fleet = run_coverage_fleet(options);

  EXPECT_LE(fleet.steps_spent, random_steps);
  EXPECT_GE(fleet.distinct_signatures, 2 * random_cells.size())
      << "fleet: " << fleet.distinct_signatures << " cells over "
      << fleet.runs.size() << " runs; random baseline: "
      << random_cells.size() << " cells over 6 runs ("
      << random_steps << " steps)";
  // Guided exploration hits a distinct config cell per run by design.
  EXPECT_EQ(fleet.distinct_cells, fleet.runs.size());
}

TEST(CoverageTest, CoverageReportSerializesTheFleet) {
  FleetOptions options;
  options.seed = 5;
  options.step_budget = 20;
  options.steps_per_run = 10;
  options.axes.min_steps = 10;
  options.axes.max_steps = 12;
  const FleetResult fleet = run_coverage_fleet(options);
  ASSERT_EQ(fleet.runs.size(), 2u);

  std::ostringstream os;
  write_coverage_report(fleet, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"distinct_cells\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_config_cells\": 96"), std::string::npos);
  EXPECT_NE(json.find("\"cells\": ["), std::string::npos);
}

TEST(CoverageTest, ShrinkPreservesTheFailureKind) {
  // The systematic failing scenario (no-shuffle deployment under the
  // targeted batched attack) classifies as a compromise; its minimal
  // reproducer must still be a compromise, not merely any failure.
  ScenarioConfig failing;
  failing.params.max_size = 1 << 12;
  failing.params.walk_mode = core::WalkMode::kSampleExact;
  failing.params.k = 10;
  failing.params.tau = 0.15;
  failing.params.shuffle_enabled = false;
  failing.n0 = 900;
  failing.topology = core::InitTopology::kModeledSparse;
  failing.steps = 100;
  failing.sample_every = 5;
  failing.seed = 37;
  failing.batch_ops = 8;
  failing.shards = 2;
  failing.batch_byz_fraction = 0.15;
  failing.batch_placement = BatchPlacement::kTargeted;
  failing.batch_leave_quota = 8;

  const ScenarioResult before = run_corpus_scenario(failing, "");
  const FailureKind kind = classify_failure(failing.params.tau, before);
  ASSERT_NE(kind, FailureKind::kNone);

  std::size_t rounds = 0;
  const ScenarioConfig shrunk = shrink_failing_config(failing, &rounds);
  EXPECT_GE(rounds, 1u);
  const ScenarioResult after = run_corpus_scenario(shrunk, "");
  EXPECT_EQ(classify_failure(shrunk.params.tau, after), kind)
      << "shrinking changed the failure kind";
}

TEST(CoverageTest, GeneratedCorpusStratifiesTheBehaviorAxes) {
  CorpusAxes axes;
  axes.master_seed = 424242;
  axes.count = 6;
  axes.min_steps = 12;
  axes.max_steps = 16;
  const std::string dir = temp_path("corpus_axes");
  const auto cases = generate_corpus(axes, dir);
  ASSERT_EQ(cases.size(), 6u);

  std::set<core::MergePolicy> merges;
  std::set<core::ThresholdMode> thresholds;
  std::set<core::WalkMode> walks;
  for (const CorpusCase& c : cases) {
    merges.insert(c.config.params.merge_policy);
    thresholds.insert(c.config.params.threshold_mode);
    walks.insert(c.config.params.walk_mode);
  }
  EXPECT_EQ(merges.size(), 2u);
  EXPECT_EQ(thresholds.size(), 2u);
  EXPECT_EQ(walks.size(), 2u);

  // Every case is recorded in the current format and replays green.
  for (const CorpusCase& c : cases) {
    const std::string path = dir + "/" + c.trace_file;
    EXPECT_EQ(trace_info(path).version, kTraceFormatVersion) << c.name;
    EXPECT_TRUE(replay_trace(path).ok) << c.name;
  }

  // The manifest names every case.
  std::ifstream manifest(dir + "/MANIFEST.tsv");
  ASSERT_TRUE(manifest.good());
  std::string content((std::istreambuf_iterator<char>(manifest)),
                      std::istreambuf_iterator<char>());
  for (const CorpusCase& c : cases) {
    EXPECT_NE(content.find(c.name), std::string::npos) << c.name;
  }
  std::filesystem::remove_all(dir);
}

TEST(CorpusTest, CheckedInCorpusReplaysClean) {
  // Every checked-in trace must replay bit-identically: the recorded
  // samples, summary and embedded snapshots all re-verify.
  std::vector<std::string> traces;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(NOW_SOURCE_DIR) + "/bench/corpus")) {
    if (entry.path().extension() == ".trace") {
      traces.push_back(entry.path().string());
    }
  }
  ASSERT_FALSE(traces.empty());
  for (const std::string& path : traces) {
    const TraceReplayResult replay = replay_trace(path);
    EXPECT_TRUE(replay.ok) << path << ": " << replay.error;
  }
}

}  // namespace
}  // namespace now::sim
