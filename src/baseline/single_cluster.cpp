#include "baseline/single_cluster.hpp"

#include "agreement/phase_king.hpp"

namespace now::baseline {

Cost flat_agreement_cost(std::size_t n) {
  return agreement::phase_king_cost_bound(n);
}

Cost flat_sampling_cost(std::size_t n) {
  const auto nn = static_cast<std::uint64_t>(n);
  return Cost{nn, nn};
}

}  // namespace now::baseline
