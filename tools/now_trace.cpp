// now_trace — CLI driver for the scenario trace subsystem (DESIGN.md §8,
// §10).
//
//   now_trace gen --out=DIR [--count=N] [--seed=S] [--min-steps=A]
//                 [--max-steps=B]
//       Generates a seeded scenario corpus: N randomized scenarios within
//       the adversary budget, one replayable trace each, failing ones
//       shrunk to minimal reproducers. Prints a manifest line per case.
//
//   now_trace replay FILE...
//       Replays each trace against a fresh deployment and verifies every
//       recorded invariant sample and the end-of-run summary bit-exactly.
//       Exit 1 on the first divergence — the CI corpus job's gate.
//
//   now_trace info FILE...
//       Prints each trace's header summary without replaying.
//
//   now_trace bisect FILE...
//       Localizes a divergence with O(log steps) embedded-checkpoint
//       restores. Prints the fork interval; exit 3 when a
//       divergence was found, 0 when the trace replays clean.
//
//   now_trace mutate IN OUT --kind={event|sample|summary} [--pick=N]
//       Corrupts exactly one recorded fact and re-stamps the checksum —
//       the verifier mutation-testing harness.
//
//   now_trace fleet [--seed=S] [--budget=STEPS] [--steps-per-run=N]
//                   [--report=FILE] [--min-cells=N] [--shrink]
//                   [--out=DIR]
//       Runs the coverage-guided fleet and writes the JSON coverage
//       report (schema in EXPERIMENTS.md). With --out, records each
//       (shrunk) failing reproducer as a trace + manifest into DIR —
//       the staging directory `gen_corpus.py --promote` consumes. Exit
//       1 when fewer than --min-cells distinct config cells were
//       reached.
//
//   now_trace recheck DIR
//       Replays every trace named by DIR/MANIFEST.tsv and verifies that
//       each promoted failing reproducer STILL fails with the same
//       failure kind — the nightly reproducer-rot gate.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/snapshot.hpp"
#include "sim/corpus.hpp"
#include "sim/trace.hpp"

namespace {

using now::sim::CorpusAxes;
using now::sim::FailureKind;
using now::sim::TraceReplayResult;

std::uint64_t arg_value(std::string_view arg, std::string_view prefix,
                        std::uint64_t fallback) {
  if (!arg.starts_with(prefix)) return fallback;
  return static_cast<std::uint64_t>(
      std::strtoull(arg.substr(prefix.size()).data(), nullptr, 10));
}

int run_gen(const std::vector<std::string>& args) {
  CorpusAxes axes;
  std::string out_dir = "corpus";
  for (const std::string& arg : args) {
    if (arg.starts_with("--out=")) out_dir = arg.substr(6);
    axes.count = static_cast<std::size_t>(
        arg_value(arg, "--count=", axes.count));
    axes.master_seed = arg_value(arg, "--seed=", axes.master_seed);
    axes.min_steps = static_cast<std::size_t>(
        arg_value(arg, "--min-steps=", axes.min_steps));
    axes.max_steps = static_cast<std::size_t>(
        arg_value(arg, "--max-steps=", axes.max_steps));
  }
  const auto cases = now::sim::generate_corpus(axes, out_dir);
  std::size_t failing = 0;
  for (const auto& c : cases) {
    std::cout << c.name << "  " << c.trace_file << "\n    "
              << now::sim::describe_trace(out_dir + "/" + c.trace_file)
              << "\n    samples=" << c.result.samples.size()
              << " peak_pC=" << c.result.peak_byz_fraction
              << " sig=" << c.signature.key();
    if (c.failing) {
      ++failing;
      std::cout << "  FAILING " << now::sim::failure_kind_name(c.failure)
                << " (minimal reproducer, " << c.shrink_rounds
                << " shrink rounds)";
    }
    std::cout << "\n";
  }
  std::cout << "generated " << cases.size() << " trace(s) into " << out_dir
            << " (" << failing << " failing reproducer(s))\n";
  return 0;
}

int run_replay(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "usage: now_trace replay FILE...\n";
    return 2;
  }
  bool all_ok = true;
  for (const std::string& path : args) {
    try {
      const TraceReplayResult replay = now::sim::replay_trace(path);
      if (replay.ok) {
        std::cout << "REPLAYED " << path << ": " << replay.steps_replayed
                  << " steps, " << replay.samples_checked
                  << " invariant samples verified, peak_pC="
                  << replay.result.peak_byz_fraction << "\n";
      } else {
        all_ok = false;
        std::cerr << "DIVERGED " << path << ": " << replay.error << "\n";
      }
    } catch (const now::core::SnapshotError& e) {
      all_ok = false;
      std::cerr << "UNREADABLE " << path << ": " << e.what() << "\n";
    }
  }
  return all_ok ? 0 : 1;
}

int run_info(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "usage: now_trace info FILE...\n";
    return 2;
  }
  for (const std::string& path : args) {
    try {
      std::cout << path << ": " << now::sim::describe_trace(path) << "\n";
    } catch (const now::core::SnapshotError& e) {
      std::cerr << path << ": " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}

int run_bisect(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "usage: now_trace bisect FILE...\n";
    return 2;
  }
  bool any_diverged = false;
  for (const std::string& path : args) {
    try {
      const now::sim::TraceBisectResult b = now::sim::bisect_trace(path);
      if (b.diverged) {
        any_diverged = true;
        std::cout << "DIVERGED " << path << ": fork in steps ("
                  << b.fork_lower_bound << ", " << b.first_bad_step
                  << "], first observed mismatch at step "
                  << b.first_bad_step << " (" << b.restores
                  << " checkpoint restores, " << b.probes << " probes)\n"
                  << "    " << b.error << "\n";
      } else {
        std::cout << "CLEAN " << path << ": full replay verified, "
                  << b.restores << " restores\n";
      }
    } catch (const now::core::SnapshotError& e) {
      std::cerr << "UNREADABLE " << path << ": " << e.what() << "\n";
      return 1;
    }
  }
  return any_diverged ? 3 : 0;
}

int run_mutate(const std::vector<std::string>& args) {
  std::string in_path;
  std::string out_path;
  std::string kind_name;
  std::uint64_t pick = 0;
  for (const std::string& arg : args) {
    if (arg.starts_with("--kind=")) {
      kind_name = arg.substr(7);
    } else if (arg.starts_with("--pick=")) {
      pick = arg_value(arg, "--pick=", 0);
    } else if (in_path.empty()) {
      in_path = arg;
    } else if (out_path.empty()) {
      out_path = arg;
    }
  }
  now::sim::TraceMutationKind kind;
  if (kind_name == "event") {
    kind = now::sim::TraceMutationKind::kEventBit;
  } else if (kind_name == "sample") {
    kind = now::sim::TraceMutationKind::kSampleField;
  } else if (kind_name == "summary") {
    kind = now::sim::TraceMutationKind::kSummaryField;
  } else {
    std::cerr << "usage: now_trace mutate IN OUT "
                 "--kind={event|sample|summary} [--pick=N]\n";
    return 2;
  }
  if (in_path.empty() || out_path.empty()) {
    std::cerr << "usage: now_trace mutate IN OUT "
                 "--kind={event|sample|summary} [--pick=N]\n";
    return 2;
  }
  try {
    const now::sim::TraceMutation m =
        now::sim::mutate_trace(in_path, out_path, kind, pick);
    if (!m.applied) {
      std::cerr << "no mutation applied: " << m.description << "\n";
      return 1;
    }
    std::cout << "MUTATED " << out_path << " @ step " << m.step << ": "
              << m.description << "\n";
    return 0;
  } catch (const now::core::SnapshotError& e) {
    std::cerr << "UNREADABLE " << in_path << ": " << e.what() << "\n";
    return 1;
  }
}

int run_fleet(const std::vector<std::string>& args) {
  now::sim::FleetOptions options;
  std::string report_path;
  std::string out_dir;
  std::uint64_t min_cells = 0;
  for (const std::string& arg : args) {
    options.seed = arg_value(arg, "--seed=", options.seed);
    options.step_budget = static_cast<std::size_t>(
        arg_value(arg, "--budget=", options.step_budget));
    options.steps_per_run = static_cast<std::size_t>(
        arg_value(arg, "--steps-per-run=", options.steps_per_run));
    min_cells = arg_value(arg, "--min-cells=", min_cells);
    if (arg.starts_with("--report=")) report_path = arg.substr(9);
    if (arg.starts_with("--out=")) out_dir = arg.substr(6);
    if (arg == "--shrink") options.shrink_failures = true;
  }
  now::sim::FleetResult fleet = now::sim::run_coverage_fleet(options);
  if (!out_dir.empty() && !fleet.failures.empty()) {
    // Stage the reproducers: name each by seed (deterministic in the
    // fleet seed, collision-free against the corpus_NNN namespace),
    // record its trace, and write the staging manifest that
    // `gen_corpus.py --promote` consumes.
    std::filesystem::create_directories(out_dir);
    for (now::sim::CorpusCase& c : fleet.failures) {
      c.name = "fleet_" + std::to_string(c.config.seed);
      c.trace_file = c.name + ".trace";
      c.result = now::sim::run_corpus_scenario(
          c.config, out_dir + "/" + c.trace_file);
    }
    now::sim::write_corpus_manifest(fleet.failures, out_dir);
    std::cerr << "staged " << fleet.failures.size()
              << " reproducer(s) into " << out_dir << "\n";
  }
  if (report_path.empty()) {
    now::sim::write_coverage_report(fleet, std::cout);
  } else {
    std::ofstream os(report_path);
    now::sim::write_coverage_report(fleet, os);
  }
  std::cerr << "fleet: " << fleet.runs.size() << " runs, "
            << fleet.distinct_cells << "/" << now::sim::kNumConfigCells
            << " config cells, " << fleet.distinct_signatures
            << " distinct signatures, " << fleet.steps_spent
            << " steps spent, " << fleet.failures.size() << " failure(s)\n";
  if (fleet.distinct_cells < min_cells) {
    std::cerr << "FAIL: reached " << fleet.distinct_cells
              << " config cells, --min-cells=" << min_cells << "\n";
    return 1;
  }
  return 0;
}

FailureKind failure_kind_from_name(std::string_view name) {
  if (name == "compromise") return FailureKind::kCompromise;
  if (name == "disconnect") return FailureKind::kDisconnect;
  if (name == "budget_breach") return FailureKind::kBudgetBreach;
  return FailureKind::kNone;
}

int run_recheck(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "usage: now_trace recheck DIR\n";
    return 2;
  }
  const std::string dir = args[0];
  std::ifstream manifest(dir + "/MANIFEST.tsv");
  if (!manifest.good()) {
    std::cerr << "no manifest at " << dir << "/MANIFEST.tsv\n";
    return 2;
  }
  std::string line;
  std::getline(manifest, line);  // header
  bool all_ok = true;
  std::size_t checked = 0;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cols;
    std::stringstream ss(line);
    std::string col;
    while (std::getline(ss, col, '\t')) cols.push_back(col);
    if (cols.size() < 4) {
      std::cerr << "malformed manifest row: " << line << "\n";
      all_ok = false;
      continue;
    }
    const std::string& name = cols[0];
    const std::string path = dir + "/" + cols[1];
    const FailureKind expected = failure_kind_from_name(cols[3]);
    ++checked;
    try {
      const TraceReplayResult replay = now::sim::replay_trace(path);
      if (!replay.ok) {
        all_ok = false;
        std::cerr << "DIVERGED " << name << ": " << replay.error << "\n";
        continue;
      }
      const double tau = now::sim::trace_info(path).params.tau;
      const FailureKind observed =
          now::sim::classify_failure(tau, replay.result);
      if (observed != expected) {
        all_ok = false;
        std::cerr << "ROTTED " << name << ": manifest says "
                  << now::sim::failure_kind_name(expected)
                  << " but the replay classifies as "
                  << now::sim::failure_kind_name(observed) << "\n";
        continue;
      }
      std::cout << "RECHECKED " << name << ": "
                << now::sim::failure_kind_name(observed) << "\n";
    } catch (const now::core::SnapshotError& e) {
      all_ok = false;
      std::cerr << "UNREADABLE " << name << ": " << e.what() << "\n";
    }
  }
  if (checked == 0) {
    std::cerr << "manifest named no cases\n";
    return 2;
  }
  std::cout << "rechecked " << checked << " case(s): "
            << (all_ok ? "all reproduce" : "FAILURES ABOVE") << "\n";
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: now_trace "
                 "{gen|replay|info|bisect|mutate|fleet|recheck} ...\n";
    return 2;
  }
  const std::string_view command{argv[1]};
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  if (command == "gen") return run_gen(args);
  if (command == "replay") return run_replay(args);
  if (command == "info") return run_info(args);
  if (command == "bisect") return run_bisect(args);
  if (command == "mutate") return run_mutate(args);
  if (command == "fleet") return run_fleet(args);
  if (command == "recheck") return run_recheck(args);
  std::cerr << "unknown command '" << command << "'\n";
  return 2;
}
