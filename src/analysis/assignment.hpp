// Initial token placement for the k-token dissemination problem: "each
// node receives an initial set of tokens ... such that the total number of
// tokens in the input to all nodes is k".
#pragma once

#include <vector>

#include "util/rng.hpp"
#include "util/token_set.hpp"

namespace hinet {

enum class AssignmentMode {
  /// Each of the k tokens starts at a distinct uniformly random node
  /// (requires k <= n).  The canonical hard case: tokens must cross the
  /// whole network.
  kDistinctRandom,
  /// All k tokens start at node 0 (broadcast / single-source case).
  kSingleSource,
  /// Token t starts at node t mod n (deterministic spread; useful for
  /// reproducible walkthroughs).
  kRoundRobin,
};

const char* assignment_mode_name(AssignmentMode mode);

/// Throws PreconditionError unless k tokens can be placed on n nodes in
/// `mode`: n and k positive, and k <= n for distinct-random.  The rules
/// assign_tokens checks, so a front end can apply them before any run.
void validate_assignment(std::size_t n, std::size_t k, AssignmentMode mode);

/// Produces one TokenSet per node with universe k.  Exactly k insertions
/// are made in total across all nodes.
std::vector<TokenSet> assign_tokens(std::size_t n, std::size_t k,
                                    AssignmentMode mode, Rng& rng);

}  // namespace hinet
