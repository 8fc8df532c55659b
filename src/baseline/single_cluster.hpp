// The "one reliable process" strawman from the paper's introduction:
// emulate a single highly-available process by running Byzantine agreement
// among *all* n nodes for every decision. Correct, but every decision costs
// Theta(n^2) messages per round and Theta(n) rounds — the expense NOW's
// clustering removes.
//
// This baseline is analytic (closed-form costs); there is nothing dynamic
// to simulate, since the whole point is that the flat approach ignores the
// network's structure.
#pragma once

#include <cstddef>

#include "common/metrics.hpp"

namespace now::baseline {

/// Cost of one flat Byzantine-agreement decision among n nodes (King
/// algorithm bound: 3(f+1)+1 rounds of n(n-1) unit messages, f = (n-1)/3).
[[nodiscard]] Cost flat_agreement_cost(std::size_t n);

/// Cost of one uniform sample without structure: contact a random known
/// node and ask it to forward along a walk of length Theta(n) over an
/// unstructured network (no expander is maintained), i.e. Theta(n) messages.
[[nodiscard]] Cost flat_sampling_cost(std::size_t n);

}  // namespace now::baseline
