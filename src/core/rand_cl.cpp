#include "core/rand_cl.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "cluster/intercluster.hpp"
#include "cluster/rand_num.hpp"
#include "common/math_util.hpp"

namespace now::core {

namespace {

/// Walk duration chosen so that the expected number of jumps is
/// ~ walk_factor * ln^2(#clusters) — the paper's O(log^2 n) walk length.
/// (A CTRW with per-edge rate 1 jumps at rate deg(v), so expected jumps over
/// duration T are ~ T * avg_degree.)
double walk_duration(const NowState& state, const NowParams& params) {
  const double m = static_cast<double>(std::max<std::size_t>(
      state.overlay().num_clusters(), 2));
  const double avg_degree = std::max(
      1.0, 2.0 * static_cast<double>(state.overlay().graph().num_edges()) / m);
  return params.walk_factor * log_pow(m, 2.0) / avg_degree;
}

/// randNum draw shared by every hop: the cluster holding the token
/// collectively samples (holding time, next neighbor). One randNum call per
/// visited cluster, as the paper charges.
Cost charge_hop_rand_num(const NowState& state, const NowParams& params,
                         ClusterId at, Metrics& metrics, Rng& rng) {
  const std::size_t size = state.cluster_at(at).size();
  const auto draw = cluster::rand_num_value(
      size, /*r=*/std::max<std::uint64_t>(2, state.overlay().degree(at) + 1),
      params.rand_num_mode, metrics, rng);
  return draw.cost;
}

RandClResult simulate_walk(const NowState& state, const NowParams& params,
                           ClusterId start, Metrics& metrics, Rng& rng) {
  RandClResult result;
  const double duration = walk_duration(state, params);
  const std::uint64_t size_bound = params.cluster_size_bound();
  const std::size_t restart_cap =
      20 + 20 * static_cast<std::size_t>(
                    log_n(static_cast<double>(state.num_clusters())));

  ClusterId current = start;
  while (true) {
    // --- One CTRW of length `duration`.
    double remaining = duration;
    while (true) {
      const std::size_t deg = state.overlay().degree(current);
      if (deg == 0) break;  // isolated vertex (single-cluster overlay)
      const Cost hop_rand = charge_hop_rand_num(state, params, current,
                                                metrics, rng);
      const double hold = rng.exponential(static_cast<double>(deg));
      if (hold >= remaining) {
        result.cost.rounds += hop_rand.rounds;  // the expiry draw still ran
        break;
      }
      remaining -= hold;
      const ClusterId next =
          state.overlay().neighbors(current)[rng.uniform(deg)];
      const auto transfer = cluster::cluster_send(
          state.cluster_at(current), state.cluster_at(next), 1,
          state.byzantine_count(current), metrics);
      result.cost.rounds += hop_rand.rounds + transfer.cost.rounds;
      current = next;
      ++result.hops;
    }

    // --- Acceptance step: u < |C| / max|C| keeps the endpoint.
    const std::size_t here = state.cluster_at(current).size();
    const auto acceptance = cluster::rand_num_value(
        here, size_bound, params.rand_num_mode, metrics, rng);
    result.cost.rounds += acceptance.cost.rounds;
    if (acceptance.value < here || result.restarts >= restart_cap) {
      result.cluster = current;
      break;
    }
    ++result.restarts;
  }
  return result;
}

RandClResult sample_exact(const NowState& state, const NowParams& params,
                          ClusterId /*start*/, Metrics& metrics, Rng& rng) {
  // Charge the modeled cost of the walk that kSimulate would have run.
  RandClResult result = rand_cl_cost_model(state, params);
  result.cluster = state.random_cluster_size_biased(rng);
  metrics.add_messages(result.cost.messages);
  return result;
}

}  // namespace

RandClResult rand_cl_cost_model(const NowState& state,
                                const NowParams& params) {
  RandClResult result;
  const std::size_t m = std::max<std::size_t>(state.num_clusters(), 2);
  const auto hops = static_cast<std::uint64_t>(std::ceil(
      params.walk_factor * log_pow(static_cast<double>(m), 2.0)));
  const std::size_t avg_size =
      std::max<std::size_t>(1, state.num_nodes() / state.num_clusters());
  const Cost rand_num =
      cluster::rand_num_cost_model(avg_size, params.rand_num_mode);
  const Cost transfer = cluster::cluster_send_cost(avg_size, avg_size, 1);
  result.hops = hops;
  result.cost.messages =
      hops * (rand_num.messages + transfer.messages) + rand_num.messages;
  result.cost.rounds =
      hops * (rand_num.rounds + transfer.rounds) + rand_num.rounds;
  return result;
}

RandClResult run_rand_cl(const NowState& state, const NowParams& params,
                         ClusterId start, Metrics& metrics, Rng& rng) {
  assert(state.has_cluster(start));
  assert(state.num_clusters() > 0);
  switch (params.walk_mode) {
    case WalkMode::kSimulate:
      return simulate_walk(state, params, start, metrics, rng);
    case WalkMode::kSampleExact:
      return sample_exact(state, params, start, metrics, rng);
  }
  return {};
}

}  // namespace now::core
