#include "analysis/assignment.hpp"

namespace hinet {

const char* assignment_mode_name(AssignmentMode mode) {
  switch (mode) {
    case AssignmentMode::kDistinctRandom: return "distinct-random";
    case AssignmentMode::kSingleSource: return "single-source";
    case AssignmentMode::kRoundRobin: return "round-robin";
  }
  return "?";
}

void validate_assignment(std::size_t n, std::size_t k, AssignmentMode mode) {
  HINET_REQUIRE(n >= 1, "need nodes");
  HINET_REQUIRE(k >= 1, "need tokens");
  HINET_REQUIRE(mode != AssignmentMode::kDistinctRandom || k <= n,
                "distinct-random needs k <= n");
}

std::vector<TokenSet> assign_tokens(std::size_t n, std::size_t k,
                                    AssignmentMode mode, Rng& rng) {
  validate_assignment(n, k, mode);
  std::vector<TokenSet> out(n, TokenSet(k));
  switch (mode) {
    case AssignmentMode::kDistinctRandom: {
      const auto holders = rng.sample(n, k);
      for (TokenId t = 0; t < k; ++t) {
        out[holders[t]].insert(t);
      }
      break;
    }
    case AssignmentMode::kSingleSource: {
      for (TokenId t = 0; t < k; ++t) out[0].insert(t);
      break;
    }
    case AssignmentMode::kRoundRobin: {
      for (TokenId t = 0; t < k; ++t) out[t % n].insert(t);
      break;
    }
  }
  return out;
}

}  // namespace hinet
