#include "core/hinet_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/hinet_properties.hpp"
#include "graph/interval.hpp"
#include "util/binary_io.hpp"

namespace hinet {
namespace {

HiNetConfig base_config(std::uint64_t seed) {
  HiNetConfig cfg;
  cfg.nodes = 40;
  cfg.heads = 6;
  cfg.phase_length = 8;
  cfg.phases = 5;
  cfg.hop_l = 2;
  cfg.reaffiliation_prob = 0.15;
  cfg.churn_edges = 4;
  cfg.seed = seed;
  return cfg;
}

TEST(HiNetMinNodes, Formula) {
  EXPECT_EQ(hinet_min_nodes(1, 3), 1u);
  EXPECT_EQ(hinet_min_nodes(5, 1), 5u);    // L=1: no relays
  EXPECT_EQ(hinet_min_nodes(5, 2), 9u);    // 4 relays
  EXPECT_EQ(hinet_min_nodes(4, 4), 13u);   // 3*3 relays
  EXPECT_THROW(hinet_min_nodes(0, 2), PreconditionError);
  EXPECT_THROW(hinet_min_nodes(2, 0), PreconditionError);
}

TEST(HiNetGenerator, RejectsInsufficientNodes) {
  HiNetConfig cfg = base_config(1);
  cfg.nodes = 8;  // needs >= 6 + 5*1 = 11
  EXPECT_THROW(make_hinet_trace(cfg), PreconditionError);
}

TEST(HiNetGenerator, StreamReportsTheGeneratorDiagnostic) {
  // The config is validated before the streaming base is built, so a
  // zero-length trace gets the generator's message, not the base's.
  HiNetConfig cfg = base_config(1);
  cfg.phases = 0;
  try {
    (void)make_hinet_stream(cfg);
    FAIL() << "phases = 0 was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("need at least one phase"),
              std::string::npos)
        << e.what();
  }
}

TEST(HiNetGenerator, TraceShape) {
  const HiNetConfig cfg = base_config(2);
  HiNetTrace trace = make_hinet_trace(cfg);
  EXPECT_EQ(trace.ctvg.node_count(), 40u);
  EXPECT_EQ(trace.ctvg.round_count(), 40u);  // 5 phases * 8 rounds
  EXPECT_EQ(trace.ctvg.validate(), "");
}

TEST(HiNetGenerator, DeterministicPerSeed) {
  const HiNetConfig cfg = base_config(3);
  HiNetTrace a = make_hinet_trace(cfg);
  HiNetTrace b = make_hinet_trace(cfg);
  for (Round r = 0; r < a.ctvg.round_count(); ++r) {
    EXPECT_TRUE(a.ctvg.graph_at(r) == b.ctvg.graph_at(r)) << "round " << r;
    EXPECT_TRUE(a.ctvg.hierarchy_at(r) == b.ctvg.hierarchy_at(r));
  }
  EXPECT_EQ(a.stats.reaffiliation_events, b.stats.reaffiliation_events);
}

TEST(HiNetGenerator, HeadCountMatchesConfig) {
  const HiNetConfig cfg = base_config(4);
  HiNetTrace trace = make_hinet_trace(cfg);
  for (Round r = 0; r < trace.ctvg.round_count(); ++r) {
    EXPECT_EQ(trace.ctvg.hierarchy_at(r).head_count(), cfg.heads);
  }
}

TEST(HiNetGenerator, StableHeadsNeverChange) {
  HiNetConfig cfg = base_config(5);
  cfg.stable_heads = true;
  cfg.head_churn_prob = 0.9;  // must be ignored
  HiNetTrace trace = make_hinet_trace(cfg);
  const auto heads0 = trace.ctvg.hierarchy_at(0).heads();
  for (Round r = 1; r < trace.ctvg.round_count(); ++r) {
    EXPECT_EQ(trace.ctvg.hierarchy_at(r).heads(), heads0);
  }
  EXPECT_EQ(trace.stats.theta, cfg.heads);
  EXPECT_EQ(trace.stats.head_changes, 0u);
}

TEST(HiNetGenerator, HeadChurnGrowsTheta) {
  HiNetConfig cfg = base_config(6);
  cfg.head_churn_prob = 0.5;
  cfg.phases = 8;
  HiNetTrace trace = make_hinet_trace(cfg);
  EXPECT_GT(trace.stats.theta, cfg.heads);  // some swaps happened
  EXPECT_GT(trace.stats.head_changes, 0u);
  // Per-round head count stays at the budget even as identities churn.
  for (Round r = 0; r < trace.ctvg.round_count(); ++r) {
    EXPECT_EQ(trace.ctvg.hierarchy_at(r).head_count(), cfg.heads);
  }
}

TEST(HiNetGenerator, ZeroReaffiliationMeansQuietMembers) {
  HiNetConfig cfg = base_config(7);
  cfg.reaffiliation_prob = 0.0;
  cfg.head_churn_prob = 0.0;
  HiNetTrace trace = make_hinet_trace(cfg);
  EXPECT_EQ(trace.stats.reaffiliation_events, 0u);
  EXPECT_DOUBLE_EQ(trace.stats.mean_reaffiliations, 0.0);
}

TEST(HiNetGenerator, ReaffiliationRateScalesWithProbability) {
  HiNetConfig lo = base_config(8);
  lo.reaffiliation_prob = 0.05;
  lo.phases = 10;
  HiNetConfig hi = lo;
  hi.reaffiliation_prob = 0.6;
  const auto t_lo = make_hinet_trace(lo);
  const auto t_hi = make_hinet_trace(hi);
  EXPECT_LT(t_lo.stats.reaffiliation_events, t_hi.stats.reaffiliation_events);
}

TEST(HiNetGenerator, SatisfiesHiNetDefinitionByConstruction) {
  const HiNetConfig cfg = base_config(9);
  HiNetTrace trace = make_hinet_trace(cfg);
  EXPECT_TRUE(check_hinet(trace.ctvg, trace.ctvg.round_count(),
                          cfg.phase_length, cfg.hop_l));
}

TEST(HiNetGenerator, BackboneLIsExactWithoutChurn) {
  HiNetConfig cfg = base_config(10);
  cfg.churn_edges = 0;
  for (int l : {1, 2, 3}) {
    cfg.hop_l = l;
    HiNetTrace trace = make_hinet_trace(cfg);
    // The chain spaces adjacent heads exactly L hops apart.
    EXPECT_EQ(measure_l_hop(trace.ctvg, 0), l) << "L=" << l;
  }
}

TEST(HiNetGenerator, SupportsMultiHopBackbones) {
  // L > 3 requires unaffiliated middle relays (future-work extension).
  HiNetConfig cfg = base_config(11);
  cfg.nodes = 60;
  cfg.hop_l = 5;
  cfg.churn_edges = 0;
  HiNetTrace trace = make_hinet_trace(cfg);
  EXPECT_EQ(trace.ctvg.validate(), "");
  EXPECT_EQ(measure_l_hop(trace.ctvg, 0), 5);
  // Some gateway must be unaffiliated.
  const HierarchyView& h = trace.ctvg.hierarchy_at(0);
  bool unaffiliated_gateway = false;
  for (NodeId v = 0; v < h.node_count(); ++v) {
    if (h.is_gateway(v) && h.cluster_of(v) == kNoCluster) {
      unaffiliated_gateway = true;
    }
  }
  EXPECT_TRUE(unaffiliated_gateway);
}

TEST(HiNetGenerator, EveryRoundIsConnected) {
  // Backbone + member edges span the graph: 1-interval connectivity.
  const HiNetConfig cfg = base_config(12);
  HiNetTrace trace = make_hinet_trace(cfg);
  EXPECT_TRUE(is_one_interval_connected(trace.ctvg.topology(),
                                        trace.ctvg.round_count()));
}

TEST(HiNetGenerator, PhaseLengthOneModelsOneLHiNet) {
  HiNetConfig cfg = base_config(13);
  cfg.phase_length = 1;
  cfg.phases = 30;
  cfg.reaffiliation_prob = 0.3;
  HiNetTrace trace = make_hinet_trace(cfg);
  EXPECT_EQ(trace.ctvg.round_count(), 30u);
  EXPECT_TRUE(check_hinet(trace.ctvg, 30, 1, cfg.hop_l));
  EXPECT_GT(trace.stats.reaffiliation_events, 0u);
}

TEST(HiNetGenerator, SingleHeadDegenerates) {
  HiNetConfig cfg = base_config(14);
  cfg.heads = 1;
  HiNetTrace trace = make_hinet_trace(cfg);
  EXPECT_EQ(trace.ctvg.validate(), "");
  EXPECT_EQ(trace.ctvg.hierarchy_at(0).head_count(), 1u);
  // All non-heads are members of the single cluster.
  EXPECT_EQ(trace.stats.mean_members, 39.0);
}

TEST(HiNetGenerator, MeanMembersAccountsForBackbone) {
  const HiNetConfig cfg = base_config(15);
  HiNetTrace trace = make_hinet_trace(cfg);
  // nodes - heads - relays = 40 - 6 - 5 = 29 plain members per round.
  EXPECT_DOUBLE_EQ(trace.stats.mean_members, 29.0);
}

TEST(HiNetGenerator, DryPassStatsMatchTheRealizedViews) {
  // hinet_trace_stats plans the phases without realizing a round; every
  // statistic it reports must equal a recount over the realized views.
  std::size_t all_head_changes = 0;
  std::size_t all_reaffiliations = 0;
  for (std::uint64_t seed = 31; seed <= 36; ++seed) {
    SCOPED_TRACE(seed);
    HiNetConfig cfg = base_config(seed);
    cfg.phase_length = seed % 2 == 0 ? 1 : 4;
    cfg.phases = 12;
    cfg.hop_l = static_cast<int>(2 + seed % 3);
    cfg.head_churn_prob = 0.3;
    cfg.backbone_rewire_prob = 0.5;
    HiNetTrace trace = make_hinet_trace(cfg);
    const std::vector<HierarchyView>& views = trace.ctvg.hierarchy().rounds();
    ASSERT_EQ(views.size(), cfg.phases * cfg.phase_length);

    std::vector<char> ever_head(cfg.nodes, 0);
    std::size_t head_changes = 0;
    std::size_t reaffiliations = 0;
    double member_rounds = 0.0;
    for (std::size_t r = 0; r < views.size(); ++r) {
      const HierarchyView& view = views[r];
      for (const NodeId h : view.heads()) ever_head[h] = 1;
      member_rounds += static_cast<double>(view.member_count());
      if (r == 0) continue;
      const HierarchyView& prev = views[r - 1];
      if (r % cfg.phase_length == 0 && view.heads() != prev.heads()) {
        ++head_changes;
      }
      // A re-affiliation: a plain member whose previous-round cluster was
      // set and differs from its cluster now.
      for (NodeId v = 0; v < cfg.nodes; ++v) {
        const ClusterId before = prev.cluster_of(v);
        if (view.role(v) == NodeRole::kMember && before != kNoCluster &&
            view.cluster_of(v) != before) {
          ++reaffiliations;
        }
      }
    }
    const double mean_members =
        member_rounds / static_cast<double>(views.size());

    const HiNetTraceStats stats = hinet_trace_stats(cfg);
    EXPECT_EQ(stats.theta, static_cast<std::size_t>(std::count(
                               ever_head.begin(), ever_head.end(), char(1))));
    EXPECT_EQ(stats.head_changes, head_changes);
    EXPECT_EQ(stats.reaffiliation_events, reaffiliations);
    EXPECT_DOUBLE_EQ(stats.mean_members, mean_members);
    EXPECT_DOUBLE_EQ(stats.mean_reaffiliations,
                     static_cast<double>(reaffiliations) / mean_members);
    all_head_changes += head_changes;
    all_reaffiliations += reaffiliations;
  }
  // The sweep must exercise both kinds of churn it recounts.
  EXPECT_GT(all_head_changes, 0u);
  EXPECT_GT(all_reaffiliations, 0u);
}

/// CRC-32 over every round of cfg's stream: the round's edges() as u32
/// pairs, then its view's role (u8) and cluster_of (u32) per node.
std::uint32_t round_bytes_crc(const HiNetConfig& cfg) {
  HiNetStreamNetwork net(cfg);
  std::uint32_t crc = 0;
  for (Round r = 0; r < net.round_count(); ++r) {
    ByteWriter w;
    for (const Edge& e : net.graph_at(r).edges()) {
      w.u32(e.u);
      w.u32(e.v);
    }
    const HierarchyView& view = net.hierarchy_at(r);
    for (NodeId v = 0; v < cfg.nodes; ++v) {
      w.u8(static_cast<std::uint8_t>(view.role(v)));
      w.u32(view.cluster_of(v));
    }
    crc = crc32(w.buffer(), crc);
  }
  return crc;
}

TEST(HiNetGenerator, RoundBytesArePinned) {
  // Every round's graph and view, pinned per trace shape: however a round
  // is built (a CSR from the full edge list, the phase's CSR plus a churn
  // merge, or a phase derived from the last by an edit), its bytes must
  // not move.
  HiNetConfig flood;  // scenario_generator(kKloOne) at n = 2000, 30 rounds
  flood.nodes = 2000;
  flood.heads = 250;
  flood.phase_length = 1;
  flood.phases = 30;
  flood.hop_l = 2;
  flood.reaffiliation_prob = 0.05;
  flood.backbone_rewire_prob = 0.05;
  flood.churn_edges = 4;
  flood.seed = 1;
  EXPECT_EQ(round_bytes_crc(flood), 0xdc942694u);

  HiNetConfig interval;  // scenario_generator(kKloInterval): T = k + αL
  interval.nodes = 200;
  interval.heads = 25;
  interval.phase_length = 36;
  interval.phases = 3;
  interval.hop_l = 2;
  interval.reaffiliation_prob = 0.1;
  interval.churn_edges = 4;
  interval.seed = 1;
  EXPECT_EQ(round_bytes_crc(interval), 0x99431c9cu);

  // Head churn and rewiring at every boundary, and enough churn on a
  // small graph that draws repeat stable edges and each other.
  HiNetConfig churny = base_config(7);
  churny.phase_length = 2;
  churny.phases = 12;
  churny.hop_l = 3;
  churny.head_churn_prob = 0.3;
  churny.backbone_rewire_prob = 0.5;
  churny.churn_edges = 16;
  EXPECT_EQ(round_bytes_crc(churny), 0x4cc44fd3u);

  // Shapes where no boundary changes the head set or the backbone, so
  // every phase after the first is derived from the one before:
  // single-round phases without rewiring at L = 1 (no relays) and L = 3,
  // and ∞-stable heads at T = 2 that ignore the head churn asked for.
  HiNetConfig derived_l1 = flood;
  derived_l1.hop_l = 1;
  derived_l1.reaffiliation_prob = 0.2;
  derived_l1.backbone_rewire_prob = 0.0;
  EXPECT_EQ(round_bytes_crc(derived_l1), 0x19646cceu);

  HiNetConfig derived_l3 = derived_l1;
  derived_l3.hop_l = 3;
  EXPECT_EQ(round_bytes_crc(derived_l3), 0xf93437c4u);

  HiNetConfig stable = base_config(11);
  stable.phase_length = 2;
  stable.phases = 12;
  stable.stable_heads = true;
  stable.head_churn_prob = 0.3;
  stable.reaffiliation_prob = 0.3;
  stable.backbone_rewire_prob = 0.0;
  stable.churn_edges = 16;
  EXPECT_EQ(round_bytes_crc(stable), 0x9847ff9du);
}

// Property sweep across seeds and parameter combinations: every generated
// trace is valid, satisfies Definition 8 and is 1-interval connected.
struct GenCase {
  std::size_t nodes, heads, t, phases;
  int l;
  double reaff;
  std::uint64_t seed;
};

class GeneratorSweep : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorSweep, TraceSatisfiesModel) {
  const GenCase c = GetParam();
  HiNetConfig cfg;
  cfg.nodes = c.nodes;
  cfg.heads = c.heads;
  cfg.phase_length = c.t;
  cfg.phases = c.phases;
  cfg.hop_l = c.l;
  cfg.reaffiliation_prob = c.reaff;
  cfg.churn_edges = 3;
  cfg.seed = c.seed;
  HiNetTrace trace = make_hinet_trace(cfg);
  EXPECT_EQ(trace.ctvg.validate(), "");
  EXPECT_TRUE(
      check_hinet(trace.ctvg, trace.ctvg.round_count(), c.t, c.l));
  EXPECT_TRUE(is_one_interval_connected(trace.ctvg.topology(),
                                        trace.ctvg.round_count()));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeneratorSweep,
    ::testing::Values(GenCase{20, 3, 4, 3, 1, 0.1, 1},
                      GenCase{30, 5, 6, 4, 2, 0.2, 2},
                      GenCase{50, 8, 10, 3, 3, 0.3, 3},
                      GenCase{64, 10, 12, 4, 2, 0.05, 4},
                      GenCase{25, 4, 1, 20, 2, 0.4, 5},
                      GenCase{100, 12, 18, 5, 2, 0.15, 6},
                      GenCase{40, 2, 5, 5, 4, 0.2, 7},
                      GenCase{36, 6, 8, 4, 3, 0.25, 8}));

}  // namespace
}  // namespace hinet
