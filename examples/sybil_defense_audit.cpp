// Scenario: red-team audit of the shuffling defense.
//
// A security review of a NOW deployment: run the strongest attacks the
// model allows (targeted join-leave cycling and forced-leave DoS) against
// the production configuration AND against a misconfigured deployment that
// disabled shuffling "to save bandwidth". Produces the audit table an
// operator would want: time-to-compromise, peak infiltration, and the
// bandwidth price of the defense.
#include <fstream>
#include <iostream>
#include <memory>

#include "adversary/adversary.hpp"
#include "core/now.hpp"
#include "sim/table.hpp"

namespace {

struct AuditRow {
  std::string config;
  std::string attack;
  bool captured = false;
  std::size_t fall_step = 0;
  double peak = 0.0;
  std::uint64_t msgs_per_step = 0;
};

AuditRow audit(bool shuffling, const std::string& attack_kind,
               std::size_t steps) {
  using namespace now;
  core::NowParams params;
  params.max_size = 1 << 13;
  params.tau = 0.15;
  params.k = 10;
  params.walk_mode = core::WalkMode::kSampleExact;
  params.shuffle_enabled = shuffling;

  Metrics metrics;
  core::NowSystem system{params, metrics, shuffling ? 11u : 13u};
  system.initialize(800, 120, core::InitTopology::kModeledSparse);

  std::unique_ptr<adversary::Adversary> attacker;
  if (attack_kind == "join-leave cycling") {
    attacker = std::make_unique<adversary::JoinLeaveAdversary>(
        params.tau, adversary::ChurnSchedule::hold(800), 0.2);
  } else {
    attacker = std::make_unique<adversary::ForcedLeaveAdversary>(params.tau);
  }

  AuditRow row;
  row.config = shuffling ? "production (shuffling on)" : "misconfigured (off)";
  row.attack = attack_kind;
  Rng rng{99};
  const auto messages_before = metrics.total().messages;
  for (std::size_t t = 1; t <= steps; ++t) {
    attacker->step(system, t, rng);
    const auto inv = system.check();
    row.peak = std::max(row.peak, inv.worst_byz_fraction);
    if (inv.compromised_clusters > 0 && !row.captured) {
      row.captured = true;
      row.fall_step = t;
      break;  // the audit stops at first capture
    }
  }
  row.msgs_per_step = (metrics.total().messages - messages_before) /
                      std::max<std::size_t>(1, row.captured
                                                   ? row.fall_step
                                                   : steps);
  return row;
}

}  // namespace

int main() {
  using now::sim::Table;
  std::cout << "NOW deployment security audit — adversary: full-knowledge, "
               "static, tau = 0.15\n\n";

  Table table({"configuration", "attack", "outcome", "fall_step", "peak_byz",
               "msgs/step"});
  bool defense_holds = true;
  bool attack_demonstrated = false;
  for (const std::string attack : {"join-leave cycling", "forced-leave DoS"}) {
    for (const bool shuffling : {true, false}) {
      const auto row = audit(shuffling, attack, 1200);
      table.add_row({row.config, row.attack,
                     row.captured ? "CAPTURED" : "held",
                     row.captured ? Table::fmt(std::uint64_t{row.fall_step})
                                  : "-",
                     Table::fmt(row.peak, 3),
                     Table::fmt(row.msgs_per_step)});
      if (shuffling && row.captured) defense_holds = false;
      if (!shuffling && row.captured) attack_demonstrated = true;
    }
  }
  table.print(std::cout);
  std::ofstream csv("EXAMPLE_sybil_defense_audit.csv");
  table.write_csv(csv);

  std::cout << "\nfindings:\n"
            << "  * with shuffling, no quorum was captured in any attack "
               "(the paper's Theorem 3);\n"
            << "  * with shuffling disabled, the join-leave attack captures "
               "a quorum — Section 3.3's warning is not theoretical;\n"
            << "  * the defense's price is the per-step message overhead "
               "visible in the last column.\n";
  return defense_holds && attack_demonstrated ? 0 : 1;
}
