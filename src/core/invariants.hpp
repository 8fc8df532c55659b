// Invariant checking — the properties Theorem 3 and Properties 1–2 promise.
//
// Checked invariants:
//   I1 (Theorem 3 / Lemma 1): every cluster has > 2/3 honest members; we
//       also report the worst Byzantine fraction and compare it to the
//       analysis' drift ceiling tau * (1 + eps).
//   I2 (Split/Merge): every cluster size is within
//       [merge_threshold, split_threshold] at rest.
//   I3 (Property 2): overlay degrees are at most the cap.
//   I4 (Property 1, necessary part): the overlay is connected.
//   I5 (bookkeeping): the partition and the node->cluster map agree,
//       every overlay vertex is a cluster and vice versa, and the kept
//       Byzantine counts and neighborhood populations equal their
//       recounts.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/state.hpp"

namespace now::core {

struct InvariantReport {
  bool ok = true;
  std::vector<std::string> violations;

  std::size_t num_nodes = 0;
  std::size_t num_clusters = 0;
  std::size_t min_cluster_size = 0;
  std::size_t max_cluster_size = 0;
  /// Worst Byzantine fraction across clusters (max_C p_C).
  double worst_byz_fraction = 0.0;
  /// Number of clusters at or above 1/3 Byzantine (compromised).
  std::size_t compromised_clusters = 0;
  std::size_t overlay_max_degree = 0;
  std::size_t overlay_min_degree = 0;
  bool overlay_connected = true;
};

/// Runs all checks. `check_sizes` can be disabled for baselines that
/// deliberately violate the size bounds (static partition, no-shuffle).
[[nodiscard]] InvariantReport check_invariants(const NowState& state,
                                               const NowParams& params,
                                               bool check_sizes = true);

}  // namespace now::core
