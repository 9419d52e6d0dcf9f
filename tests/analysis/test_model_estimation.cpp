// Stability estimation over organic (non-generated) traces.
#include "analysis/model_estimation.hpp"

#include <gtest/gtest.h>

#include <string>

#include "cluster/maintenance.hpp"
#include "core/hinet_generator.hpp"
#include "graph/markovian.hpp"
#include "graph/mobility.hpp"

namespace hinet {
namespace {

TEST(ModelEstimation, GeneratedTraceEstimatesMatchConfig) {
  HiNetConfig cfg;
  cfg.nodes = 30;
  cfg.heads = 4;
  cfg.phase_length = 6;
  cfg.phases = 4;
  cfg.hop_l = 2;
  cfg.reaffiliation_prob = 0.5;  // hierarchy churns at every boundary
  cfg.churn_edges = 0;
  cfg.seed = 3;
  HiNetTrace trace = make_hinet_trace(cfg);
  const StabilityEstimate est =
      estimate_stability(trace.ctvg, trace.ctvg.round_count());
  // The generated trace is stable within aligned phases of 6.
  EXPECT_GE(est.max_t_stable_hierarchy, 6u);
  EXPECT_GE(est.max_t_stable_head_set, 6u);
  EXPECT_GE(est.max_t_head_connectivity, 6u);
  EXPECT_EQ(est.worst_l, 2);
  EXPECT_GE(est.max_t_hinet, 6u);
}

TEST(ModelEstimation, StableHeadsStretchHeadSetStability) {
  HiNetConfig cfg;
  cfg.nodes = 24;
  cfg.heads = 3;
  cfg.phase_length = 4;
  cfg.phases = 5;
  cfg.hop_l = 2;
  cfg.reaffiliation_prob = 1.0;  // members churn every boundary
  cfg.stable_heads = true;
  cfg.churn_edges = 0;
  cfg.seed = 5;
  HiNetTrace trace = make_hinet_trace(cfg);
  const StabilityEstimate est =
      estimate_stability(trace.ctvg, trace.ctvg.round_count());
  // Head set never changes: stable for the whole trace.
  EXPECT_EQ(est.max_t_stable_head_set, trace.ctvg.round_count());
  // Full hierarchy churns at phase boundaries.
  EXPECT_LT(est.max_t_stable_hierarchy, trace.ctvg.round_count());
}

TEST(ModelEstimation, SingleClusterVacuousConnectivity) {
  HiNetConfig cfg;
  cfg.nodes = 12;
  cfg.heads = 1;
  cfg.phase_length = 3;
  cfg.phases = 3;
  cfg.hop_l = 2;
  cfg.churn_edges = 0;
  cfg.reaffiliation_prob = 0.0;
  cfg.seed = 2;
  HiNetTrace trace = make_hinet_trace(cfg);
  const StabilityEstimate est =
      estimate_stability(trace.ctvg, trace.ctvg.round_count());
  EXPECT_EQ(est.worst_l, 0);  // fewer than two heads
  EXPECT_EQ(est.max_t_hinet, est.max_t_stable_hierarchy);
}

TEST(ModelEstimation, MaintainedHierarchyOverMarkovianDynamics) {
  // The Section VI future-work pipeline: flat EMDG dynamics + a real
  // clustering algorithm; the estimate quantifies which (T, L) the
  // combination provides.
  MarkovianConfig mc;
  mc.nodes = 24;
  mc.birth = 0.08;
  mc.death = 0.1;
  mc.initial = 0.3;
  mc.rounds = 24;
  mc.seed = 7;
  GraphSequence net = make_edge_markovian_trace(mc);
  MaintainedHierarchy mh = maintain_over(net, 24);
  std::vector<Graph> graphs;
  for (Round r = 0; r < 24; ++r) graphs.push_back(net.graph_at(r));
  Ctvg trace(GraphSequence(std::move(graphs)), std::move(mh.hierarchy));
  const StabilityEstimate est = estimate_stability(trace, 24, /*t_cap=*/12);
  // Organic dynamics: estimates exist and are internally consistent.
  EXPECT_GE(est.max_t_stable_head_set, est.max_t_stable_hierarchy);
  SUCCEED();
}

TEST(ModelEstimation, PinnedOnHeadChurnTraces) {
  // Regression pins: head churn and backbone rewiring at (T, L) = (20, 3)
  // give each seed its own estimate.
  struct Pinned {
    std::uint64_t seed;
    StabilityEstimate est;
  };
  const Pinned pinned[] = {
      {1, {40, 20, 20, 3, 20}},
      {2, {40, 20, 40, 3, 20}},
      {3, {20, 20, 20, 3, 20}},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE("seed " + std::to_string(p.seed));
    HiNetConfig cfg;
    cfg.nodes = 36;
    cfg.heads = 4;
    cfg.phase_length = 20;
    cfg.phases = 3;
    cfg.hop_l = 3;
    cfg.reaffiliation_prob = 0.3;
    cfg.head_churn_prob = 0.3;
    cfg.backbone_rewire_prob = 0.5;
    cfg.churn_edges = 3;
    cfg.seed = p.seed;
    HiNetTrace trace = make_hinet_trace(cfg);
    const StabilityEstimate est =
        estimate_stability(trace.ctvg, trace.ctvg.round_count());
    EXPECT_EQ(est.max_t_stable_head_set, p.est.max_t_stable_head_set);
    EXPECT_EQ(est.max_t_stable_hierarchy, p.est.max_t_stable_hierarchy);
    EXPECT_EQ(est.max_t_head_connectivity, p.est.max_t_head_connectivity);
    EXPECT_EQ(est.worst_l, p.est.worst_l);
    EXPECT_EQ(est.max_t_hinet, p.est.max_t_hinet);
  }
}

TEST(ModelEstimation, RejectsBadArguments) {
  HiNetConfig cfg;
  cfg.nodes = 10;
  cfg.heads = 2;
  cfg.phase_length = 2;
  cfg.phases = 2;
  cfg.seed = 1;
  HiNetTrace trace = make_hinet_trace(cfg);
  EXPECT_THROW(estimate_stability(trace.ctvg, 0), PreconditionError);
  EXPECT_THROW(estimate_stability(trace.ctvg, 99), PreconditionError);
}

}  // namespace
}  // namespace hinet
