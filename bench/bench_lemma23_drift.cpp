// L23 — Lemmas 2 & 3: the Byzantine fraction of a cluster behaves like a
// supermartingale between the drift ceilings. Lemma 3: a cluster that starts
// between tau(1+eps/2) and tau(1+eps) falls below tau(1+eps/2) within
// O(log N) uniformly-random node exchanges whp. Lemma 2: while recovering it
// never climbs past tau(1+eps) whp.
//
// Experiment: seed a cluster at exactly tau(1+eps) Byzantine by fiat, then
// exchange nodes one full-cluster round at a time, recording (a) the number
// of individual node swaps until the fraction is below tau(1+eps/2) and
// (b) the maximal excursion along the way. Sweep N; recovery should scale
// like ln N (each cluster holds ~ k ln N nodes).
#include "bench_common.hpp"

namespace now {
namespace {

void run() {
  bench::print_header(
      "L23 (Lemmas 2-3: drift of the Byzantine fraction)",
      "recovery below tau(1+eps/2) within O(log N) exchanges whp; "
      "no excursion above tau(1+eps) meanwhile");

  constexpr double kTau = 0.20;
  constexpr double kEps = 0.5;  // tau(1+eps) = 0.30 < 1/3
  constexpr int kTrials = 120;

  sim::Table table({"N", "|C|", "k*lnN", "mean_swaps", "p95_swaps",
                    "swaps/lnN", "P(excursion>tau(1+eps))"});
  bench::JsonEmitter json("lemma23_drift");

  std::vector<double> sweep_n;
  std::vector<double> mean_swaps_per_n;
  bool excursions_ok = true;

  for (const std::uint64_t exponent : {10u, 12u, 14u, 16u, 18u}) {
    const std::uint64_t N = 1ULL << exponent;
    core::NowParams params;
    params.max_size = N;
    params.tau = kTau;
    params.walk_mode = core::WalkMode::kSampleExact;
    Metrics metrics;
    core::NowSystem system{params, metrics, N + 3};
    const std::size_t n = 1500;
    system.initialize(n, static_cast<std::size_t>(kTau * n),
                      core::InitTopology::kModeledSparse);
    auto& state = const_cast<core::NowState&>(system.state());
    const ClusterId target = state.cluster_ids().front();

    RunningStat swaps_stat;
    std::vector<double> swaps_samples;
    int excursions = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      // Seed the target at ceil(tau(1+eps)|C|) Byzantine members: mark
      // members Byzantine / honest by fiat, preserving the global budget.
      auto& cluster = state.cluster_at(target);
      const auto want = static_cast<std::size_t>(
          std::ceil(kTau * (1 + kEps) * static_cast<double>(cluster.size())));
      // Clear current marks in the target.
      const auto member_view = cluster.members();
      std::vector<NodeId> members(member_view.begin(), member_view.end());
      std::size_t delta_added = 0;
      for (std::size_t i = 0; i < members.size(); ++i) {
        const bool should_be_byz = i < want;
        const bool is_byz = state.byzantine.contains(members[i]);
        if (should_be_byz && !is_byz) {
          state.set_byzantine(members[i], true);
          ++delta_added;
        } else if (!should_be_byz && is_byz) {
          state.set_byzantine(members[i], false);
          // One fewer to remove elsewhere.
          if (delta_added > 0) --delta_added;
        }
      }
      // Unmarking swaps the last mark into position i, which is then
      // visited next.
      for (std::size_t i = 0; i < state.byzantine.size() && delta_added > 0;) {
        const NodeId b = state.byzantine.at_index(i);
        if (state.home_of(b) != target) {
          state.set_byzantine(b, false);
          --delta_added;
        } else {
          ++i;
        }
      }

      // Exchange until recovered; track excursions.
      const double recover_line = kTau * (1 + kEps / 2);
      const double ceiling = kTau * (1 + kEps) + 1e-9;
      std::size_t swaps = 0;
      bool excursion = false;
      for (int round = 0; round < 50; ++round) {
        const double p = state.byzantine_fraction(target);
        if (p < recover_line) break;
        if (p > ceiling && round > 0) excursion = true;
        system.exchange_all(target);
        swaps += cluster.size();
      }
      swaps_stat.add(static_cast<double>(swaps));
      swaps_samples.push_back(static_cast<double>(swaps));
      excursions += excursion ? 1 : 0;
    }

    const double ln_n = std::log(static_cast<double>(N));
    const double excursion_rate = static_cast<double>(excursions) / kTrials;
    table.add_row(
        {sim::Table::fmt(N),
         sim::Table::fmt(std::uint64_t{state.cluster_at(target).size()}),
         sim::Table::fmt(static_cast<double>(params.cluster_size_target()), 0),
         sim::Table::fmt(swaps_stat.mean(), 1),
         sim::Table::fmt(quantile(swaps_samples, 0.95), 1),
         sim::Table::fmt(swaps_stat.mean() / ln_n, 2),
         sim::Table::fmt(excursion_rate, 3)});
    sweep_n.push_back(static_cast<double>(N));
    mean_swaps_per_n.push_back(swaps_stat.mean());
    json.add_scalar("recovery_swaps", N, swaps_stat.mean());
    json.add_scalar("excursion_rate", N, excursion_rate);
    // Lemma 2's "whp" is asymptotic in the cluster size k ln N: at N = 2^10
    // a +1 member fluctuation already crosses the ceiling, so judge the
    // large-cluster rows.
    if (N >= (1ULL << 14) && excursion_rate > 0.10) excursions_ok = false;
  }
  table.print(std::cout);

  const auto fit = polylog_fit(sweep_n, mean_swaps_per_n);
  json.add_scalar("recovery_fit_exponent", 1ULL << 18, fit.slope);
  std::cout << "recovery swaps ~ (ln N)^" << sim::Table::fmt(fit.slope, 2)
            << " (r^2=" << sim::Table::fmt(fit.r2, 3)
            << "; Lemmas 2-3 predict exponent ~1: O(log N) exchanges)\n";
  bench::print_verdict(
      fit.slope < 2.0 && excursions_ok,
      "seeded clusters decay back below tau(1+eps/2) within O(log N) swaps "
      "and stay under the tau(1+eps) ceiling while doing so");
}

}  // namespace
}  // namespace now

int main() {
  now::run();
  return 0;
}
