// Scenario: quorums for a peer-to-peer storage service under hostile churn.
//
// The motivating deployment from the paper's introduction and the King-Saia
// question it answers: a DHT-like storage network needs small quorums of
// mostly-good processors to certify writes, while peers constantly arrive
// and depart and a coordinated fraction of them is malicious. NOW's
// clusters ARE those quorums: this example runs a day of simulated churn
// (including a join-leave attacker), and after every epoch performs
// quorum-certified writes — a write is durable iff the assigned cluster
// carries an honest supermajority and acknowledges through the > 1/2 rule.
#include <fstream>
#include <iostream>

#include "adversary/adversary.hpp"
#include "apps/sampling.hpp"
#include "cluster/intercluster.hpp"
#include "core/now.hpp"
#include "sim/table.hpp"

int main() {
  using namespace now;

  core::NowParams params;
  params.max_size = 1 << 14;
  params.tau = 0.15;
  params.k = 8;  // storage wants strong quorums: scale k to the threat
  params.walk_mode = core::WalkMode::kSampleExact;

  Metrics metrics;
  core::NowSystem system{params, metrics, 7777};
  system.initialize(900, 135, core::InitTopology::kModeledSparse);
  std::cout << "storage network up: " << system.num_nodes() << " peers, "
            << system.num_clusters() << " quorums of ~"
            << params.cluster_size_target() << " peers\n\n";

  // The adversary runs a join-leave attack against one quorum while
  // background churn keeps the population moving.
  adversary::JoinLeaveAdversary attacker{
      params.tau, adversary::ChurnSchedule::hold(900),
      /*background_churn=*/0.3};
  Rng rng{42};

  sim::Table log({"epoch", "peers", "quorums", "writes_ok", "writes_failed",
                  "worst_quorum_byz", "attacked_quorum"});
  const int epochs = 8;
  const int steps_per_epoch = 50;
  const int writes_per_epoch = 40;
  bool all_durable = true;

  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (int s = 0; s < steps_per_epoch; ++s) {
      attacker.step(system, static_cast<std::size_t>(
                                epoch * steps_per_epoch + s + 1),
                    rng);
    }

    // Writes: pick the owning quorum by sampling (in a real DHT this would
    // be a key hash; sampling exercises the same randCl machinery), then
    // require the quorum to certify to a neighbor quorum (the witness).
    int ok = 0;
    int failed = 0;
    for (int w = 0; w < writes_per_epoch; ++w) {
      const auto& state = system.state();
      const ClusterId owner =
          state.random_cluster_size_biased(system.rng());
      const auto neighbors = state.overlay().neighbors(owner);
      if (neighbors.empty()) {
        ++failed;
        continue;
      }
      const auto witness = neighbors[system.rng().uniform(neighbors.size())];
      const auto outcome = cluster::cluster_send(
          state.cluster_at(owner), state.cluster_at(witness), /*units=*/2,
          state.byzantine_count(owner), metrics);
      if (outcome.accepted && !outcome.forgeable) {
        ++ok;
      } else {
        ++failed;
        all_durable = false;
      }
    }

    const auto inv = system.check();
    log.add_row({sim::Table::fmt(std::uint64_t(epoch)),
                 sim::Table::fmt(std::uint64_t{system.num_nodes()}),
                 sim::Table::fmt(std::uint64_t{system.num_clusters()}),
                 sim::Table::fmt(std::uint64_t(ok)),
                 sim::Table::fmt(std::uint64_t(failed)),
                 sim::Table::fmt(inv.worst_byz_fraction, 3),
                 sim::Table::fmt(std::uint64_t{
                     attacker.target().valid() ? attacker.target().value()
                                               : 0})});
  }

  log.print(std::cout);
  std::ofstream csv("EXAMPLE_p2p_storage_quorums.csv");
  log.write_csv(csv);
  std::cout << "\nall writes quorum-certified: " << (all_durable ? "yes" : "NO")
            << " — the attacked quorum never lost its honest supermajority\n";
  return all_durable ? 0 : 1;
}
