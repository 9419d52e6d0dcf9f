#include "analysis/model_estimation.hpp"

#include <algorithm>

namespace hinet {

StabilityEstimate estimate_stability(Ctvg& trace, std::size_t rounds,
                                     std::size_t t_cap) {
  HINET_REQUIRE(rounds >= 1, "need at least one round");
  HINET_REQUIRE(rounds <= trace.round_count(), "rounds beyond the trace");
  if (t_cap == 0 || t_cap > rounds) t_cap = rounds;

  StabilityEstimate est;

  // Worst-case L over individual rounds.
  est.worst_l = 0;
  for (Round r = 0; r < rounds; ++r) {
    const int l = measure_l_hop(trace, r);
    if (l < 0) {
      est.worst_l = -1;
      break;
    }
    est.worst_l = std::max(est.worst_l, l);
  }

  // Aligned-phase properties are not monotone in T in general, so report
  // the largest T that holds by direct scan: one judgement per window per
  // T, read for every definition at once.
  for (std::size_t t = 1; t <= t_cap; ++t) {
    const AssumptionReport report =
        monitor_assumptions(trace, rounds, t, std::max(est.worst_l, 1));
    bool head_set = true;
    bool hierarchy = true;
    bool connected = true;
    for (const WindowReport& w : report.windows) {
      head_set = head_set && w.head_set_stable;
      hierarchy = hierarchy && w.hierarchy_stable;
      connected = connected && w.head_connectivity;
    }
    if (head_set) est.max_t_stable_head_set = t;
    if (hierarchy) est.max_t_stable_hierarchy = t;
    if (connected) est.max_t_head_connectivity = t;
    // Definition 8 at L = worst_l: a clean report is check_hinet holding.
    if (est.worst_l >= 1 && report.clean()) est.max_t_hinet = t;
  }

  if (est.worst_l == 0) {
    // Single cluster (fewer than two heads everywhere): Def. 7 is vacuous;
    // the hierarchy stability alone decides.
    est.max_t_hinet = est.max_t_stable_hierarchy;
  }
  return est;
}

}  // namespace hinet
