// Synthetic (T, L)-HiNet trace generator.
//
// The paper assumes clustered dynamic-network traces exist (its evaluation
// is purely analytic; no testbed traces were published).  This generator
// is the executable substitute: it *constructs* CTVG traces that satisfy
// Definition 8 by design, with tunable dynamics, so the algorithms can be
// run and measured on workloads matching the model exactly.
//
// Construction, per phase of T rounds:
//   - a head set of `heads` nodes (optionally ∞-stable across phases,
//     optionally churned at phase boundaries);
//   - a backbone chain threading all heads with L-1 relay gateways between
//     consecutive heads, giving exactly L-hop head connectivity; the chain
//     is stable for the whole phase, so it is the Υ of Definition 5;
//   - every remaining node is a member of some head with a stable
//     member-head edge (1-hop clusters); members re-affiliate only at
//     phase boundaries, with probability `reaffiliation_prob`;
//   - every round additionally receives `churn_edges` ephemeral random
//     edges, exercising the "everything else may change arbitrarily"
//     freedom of the model.
//
// With phase_length == 1 this produces (1, L)-HiNet traces: the backbone
// and affiliations may change every round.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ctvg.hpp"

namespace hinet {

struct HiNetConfig {
  std::size_t nodes = 0;
  std::size_t heads = 0;         ///< cluster-head count (the θ bound)
  std::size_t phase_length = 1;  ///< T
  std::size_t phases = 1;        ///< trace length = phases * phase_length
  int hop_l = 2;                 ///< L (>= 1); needs (heads-1)*(L-1) gateways
  double reaffiliation_prob = 0.1;  ///< per member, per phase boundary
  double head_churn_prob = 0.0;     ///< per head, per phase boundary
  /// Probability that the backbone (chain order + relay identities) is
  /// re-laid-out at a phase boundary.  1.0 reshuffles every phase (maximum
  /// dynamics allowed by the model); small values model a quasi-stable
  /// relay structure, which is what keeps Algorithm 2's member uploads
  /// proportional to n_r when phases are single rounds.  A head-set change
  /// always forces a rewire.
  double backbone_rewire_prob = 1.0;
  std::size_t churn_edges = 4;      ///< ephemeral random edges per round
  bool stable_heads = false;        ///< ∞-interval stable head set (Remark 1)
  std::uint64_t seed = 1;
};

/// Dynamics statistics observed while generating, in the vocabulary of the
/// paper's Table 1.
struct HiNetTraceStats {
  std::size_t theta = 0;            ///< distinct nodes that ever were heads
  double mean_members = 0.0;        ///< n_m: plain members per round (mean)
  double mean_reaffiliations = 0.0; ///< n_r: re-affiliations per member
  std::size_t reaffiliation_events = 0;
  std::size_t head_changes = 0;     ///< phase boundaries where V_h changed
};

struct HiNetTrace {
  Ctvg ctvg;
  HiNetTraceStats stats;
};

/// Throws PreconditionError unless cfg is inside the generator's model:
/// at least one node, head and phase, T >= 1, L >= 1, every probability in
/// [0, 1], and a node budget that hosts `heads` heads plus the
/// (heads-1)*(hop_l-1) backbone gateways.  Every generator entry point
/// checks it first.
void validate_hinet_config(const HiNetConfig& cfg);

/// Generates a trace; throws PreconditionError on a cfg outside the model
/// (validate_hinet_config).
/// This is the materialized special case: a walk over HiNetStreamNetwork
/// that keeps every round, with stats from hinet_trace_stats.
HiNetTrace make_hinet_trace(const HiNetConfig& cfg);

namespace detail {
class PhaseDriver;
}  // namespace detail

/// The (T, L)-HiNet generator as a streaming provider: one phase driver
/// plans each phase (head churn, backbone, affiliations) and holds the
/// phase's stable edges as a CSR with the view validated on it.  Phase 0
/// and any phase whose head set or backbone changed are planned whole: the
/// CSR built from the edge list and every row validated.  Any other phase
/// is derived from the last: the same draws, but only the re-affiliated
/// members are re-pointed, their head edges swapped in the CSR
/// (Graph::edited) and their rows re-validated.  Each round is the phase's
/// CSR with the round's churn draws merged in (Graph::with_edges, linear
/// in the graph).  Besides the graph ring of
/// StreamingNetwork it keeps the matching W views, so hierarchy_at(r)
/// shares graph_at(r)'s clamping, residency and replay.  Byte-identical,
/// round by round, to make_hinet_trace(cfg).
class HiNetStreamNetwork final : public StreamingNetwork {
 public:
  /// Throws PreconditionError on an invalid cfg (see make_hinet_trace).
  explicit HiNetStreamNetwork(const HiNetConfig& cfg);
  ~HiNetStreamNetwork() override;

  /// Hierarchy view of round r, under graph_at(r)'s conventions.
  const HierarchyView& hierarchy_at(Round r);

 private:
  Graph synthesize_next() override;
  void reset_generator() override;

  std::size_t phase_length_;
  std::unique_ptr<detail::PhaseDriver> driver_;
  std::vector<HierarchyView> views_;  ///< view of round r at views_[r % W]
};

/// make_hinet_stream's pair of handles over one shared HiNetStreamNetwork,
/// so a trace at n = 10^5 is never fully resident and each round is
/// synthesized once for graph_at and hierarchy_at.
struct HiNetStream {
  std::unique_ptr<DynamicNetwork> topology;
  std::unique_ptr<HierarchyProvider> hierarchy;
  std::size_t rounds = 0;    ///< nominal horizon: phases * phase_length
};

/// Builds a streaming (T, L)-HiNet trace at the default ring, which is
/// all the engine and the assumption monitor need.  Plans nothing beyond
/// phase 0 up front; callers that want the trace's statistics ask
/// hinet_trace_stats.
HiNetStream make_hinet_stream(const HiNetConfig& cfg);

/// Dynamics statistics of the trace cfg would generate, from a
/// planning-only dry pass: exact and O(phases · n) with no per-round graph
/// materialization (the per-round churn stream is independent of the
/// planning streams, so skipping it cannot perturb the plans).
HiNetTraceStats hinet_trace_stats(const HiNetConfig& cfg);

/// Smallest node count that can host the requested backbone.
std::size_t hinet_min_nodes(std::size_t heads, int hop_l);

}  // namespace hinet
