// Differential tests: the hierarchical algorithms degenerate to the flat
// KLO baselines when every node is a cluster head.
//
//   - Algorithm 1's head/gateway rule (broadcast min(TA\TS), clear TS per
//     phase) run by ALL nodes is exactly the KLO pipeline — the paper
//     derives its comparison row this way.
//   - Algorithm 2's head rule (broadcast TA every round) run by all nodes
//     is exactly KLO token forwarding.
// Running both implementations on identical traces and comparing
// per-round metrics pins the shared semantics down to the packet level.
//
// KLO token forwarding is also checked against the causal-influence
// flood (causal_arrival), the floor no algorithm beats: it sends its whole
// TA every round, so on a perfect channel a node completes exactly when
// every token's flood from that token's initial holders reaches it.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "analysis/assignment.hpp"
#include "analysis/scenarios.hpp"
#include "baseline/klo.hpp"
#include "core/alg1.hpp"
#include "core/alg2.hpp"
#include "graph/adversary.hpp"
#include "graph/dynamic.hpp"
#include "sim/engine.hpp"

namespace hinet {
namespace {

/// Hierarchy where every node heads its own singleton cluster.
HierarchySequence all_heads(std::size_t n) {
  HierarchyView h(n);
  for (NodeId v = 0; v < n; ++v) h.set_head(v);
  return HierarchySequence({h});
}

struct DiffCase {
  std::size_t nodes, k, t;
  std::uint64_t seed;
};

class Alg1VsKloPipeline : public ::testing::TestWithParam<DiffCase> {};

TEST_P(Alg1VsKloPipeline, IdenticalMetricsOnAllHeadHierarchy) {
  const DiffCase c = GetParam();
  const std::size_t phases = 4;
  AdversaryConfig adv;
  adv.nodes = c.nodes;
  adv.interval = c.t;
  adv.rounds = phases * c.t;
  adv.churn_edges = 3;
  adv.seed = c.seed;
  GraphSequence net1 = make_t_interval_trace(adv);
  GraphSequence net2 = make_t_interval_trace(adv);
  HierarchySequence hier = all_heads(c.nodes);

  Rng rng(c.seed ^ 0xd1ffULL);
  const auto init =
      assign_tokens(c.nodes, c.k, AssignmentMode::kDistinctRandom, rng);

  Alg1Params a1;
  a1.k = c.k;
  a1.phase_length = c.t;
  a1.phases = phases;
  Engine e1(net1, &hier, make_alg1_processes(init, a1));
  const SimMetrics m1 =
      e1.run({.max_rounds = phases * c.t, .stop_when_complete = false});

  KloPipelineParams kp;
  kp.k = c.k;
  kp.phase_length = c.t;
  kp.phases = phases;
  Engine e2(net2, nullptr, make_klo_pipeline_processes(init, kp));
  const SimMetrics m2 =
      e2.run({.max_rounds = phases * c.t, .stop_when_complete = false});

  EXPECT_EQ(m1.packets_sent, m2.packets_sent);
  EXPECT_EQ(m1.tokens_sent, m2.tokens_sent);
  EXPECT_EQ(m1.rounds_to_completion, m2.rounds_to_completion);
  EXPECT_EQ(m1.tokens_sent_per_round, m2.tokens_sent_per_round);
  EXPECT_EQ(m1.complete_nodes_per_round, m2.complete_nodes_per_round);
  // Final knowledge is token-for-token identical.
  for (NodeId v = 0; v < c.nodes; ++v) {
    EXPECT_TRUE(e1.process(v).knowledge() == e2.process(v).knowledge())
        << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Alg1VsKloPipeline,
    ::testing::Values(DiffCase{12, 3, 5, 1}, DiffCase{20, 6, 8, 2},
                      DiffCase{16, 4, 6, 3}, DiffCase{24, 8, 10, 4},
                      DiffCase{30, 5, 7, 5}));

class Alg2VsKloFlood : public ::testing::TestWithParam<DiffCase> {};

TEST_P(Alg2VsKloFlood, IdenticalMetricsOnAllHeadHierarchy) {
  const DiffCase c = GetParam();
  const std::size_t rounds = c.nodes - 1;
  AdversaryConfig adv;
  adv.nodes = c.nodes;
  adv.interval = 1;
  adv.rounds = rounds;
  adv.churn_edges = 2;
  adv.seed = c.seed;
  GraphSequence net1 = make_t_interval_trace(adv);
  GraphSequence net2 = make_t_interval_trace(adv);
  HierarchySequence hier = all_heads(c.nodes);

  Rng rng(c.seed ^ 0xd2ffULL);
  const auto init =
      assign_tokens(c.nodes, c.k, AssignmentMode::kDistinctRandom, rng);

  Alg2Params a2;
  a2.k = c.k;
  a2.rounds = rounds;
  Engine e1(net1, &hier, make_alg2_processes(init, a2));
  const SimMetrics m1 =
      e1.run({.max_rounds = rounds, .stop_when_complete = false});

  KloFloodParams kf;
  kf.k = c.k;
  kf.rounds = rounds;
  Engine e2(net2, nullptr, make_klo_flood_processes(init, kf));
  const SimMetrics m2 =
      e2.run({.max_rounds = rounds, .stop_when_complete = false});

  EXPECT_EQ(m1.packets_sent, m2.packets_sent);
  EXPECT_EQ(m1.tokens_sent, m2.tokens_sent);
  EXPECT_EQ(m1.tokens_sent_per_round, m2.tokens_sent_per_round);
  EXPECT_EQ(m1.rounds_to_completion, m2.rounds_to_completion);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Alg2VsKloFlood,
    ::testing::Values(DiffCase{12, 3, 0, 1}, DiffCase{20, 6, 0, 2},
                      DiffCase{16, 4, 0, 3}, DiffCase{28, 8, 0, 4}));

class KloFloodMeetsCausalFloor
    : public ::testing::TestWithParam<std::tuple<Scenario, std::uint64_t>> {};

TEST_P(KloFloodMeetsCausalFloor, NodesCompleteExactlyAtTheirFloor) {
  const auto [scenario, seed] = GetParam();
  ScenarioConfig cfg;
  cfg.nodes = 60;
  cfg.heads = 12;
  cfg.k = 6;
  cfg.alpha = 3;
  cfg.hop_l = 2;
  HiNetTrace trace = make_hinet_trace(scenario_generator(scenario, cfg, seed));
  GraphSequence& net = trace.ctvg.topology();
  Rng rng(seed);
  const auto init = assign_tokens(cfg.nodes, cfg.k, cfg.assignment, rng);
  const std::size_t rounds = cfg.nodes - 1;

  // floor[v]: the round after which the flood of every token, started at
  // all of that token's initial holders, has reached v.
  std::vector<std::size_t> floor(cfg.nodes, 0);
  for (TokenId t = 0; t < cfg.k; ++t) {
    std::vector<std::size_t> first(cfg.nodes, kNeverReached);
    for (NodeId h = 0; h < cfg.nodes; ++h) {
      if (!init[h].contains(t)) continue;
      const auto arrival = causal_arrival(net, h, 0, rounds);
      for (NodeId v = 0; v < cfg.nodes; ++v) {
        first[v] = std::min(first[v], arrival[v]);
      }
    }
    for (NodeId v = 0; v < cfg.nodes; ++v) {
      floor[v] = std::max(floor[v], first[v]);
    }
  }

  KloFloodParams kf;
  kf.k = cfg.k;
  kf.rounds = rounds;
  Engine engine(net, nullptr, make_klo_flood_processes(init, kf));
  const SimMetrics m =
      engine.run({.max_rounds = rounds, .stop_when_complete = false});

  ASSERT_TRUE(m.all_delivered);
  EXPECT_EQ(m.rounds_to_completion,
            *std::max_element(floor.begin(), floor.end()));
  ASSERT_EQ(m.complete_nodes_per_round.size(), rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto at_floor = std::count_if(
        floor.begin(), floor.end(), [r](std::size_t f) { return f <= r + 1; });
    EXPECT_EQ(m.complete_nodes_per_round[r],
              static_cast<std::size_t>(at_floor))
        << "round " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ScenarioTraces, KloFloodMeetsCausalFloor,
    ::testing::Combine(::testing::ValuesIn(all_scenarios()),
                       ::testing::Values(1u, 2u, 3u, 7u)),
    [](const auto& case_info) {
      std::string name = scenario_cli_name(std::get<0>(case_info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_seed" + std::to_string(std::get<1>(case_info.param));
    });

// Engine-level invariants that every algorithm must preserve, checked on
// one representative of each family.
TEST(EngineInvariants, KnowledgeOnlyGrowsAndStaysWithinInitialUnion) {
  AdversaryConfig adv;
  adv.nodes = 15;
  adv.interval = 1;
  adv.rounds = 14;
  adv.churn_edges = 2;
  adv.seed = 9;
  GraphSequence net = make_t_interval_trace(adv);
  Rng rng(3);
  const auto init = assign_tokens(15, 4, AssignmentMode::kDistinctRandom, rng);
  TokenSet all(4);
  for (const auto& s : init) all.unite(s);
  ASSERT_TRUE(all.full());

  KloFloodParams p;
  p.k = 4;
  p.rounds = 14;
  auto procs = make_klo_flood_processes(init, p);
  std::vector<const Process*> views;
  for (const auto& pr : procs) views.push_back(pr.get());
  Engine engine(net, nullptr, std::move(procs));
  std::vector<std::size_t> prev_counts(15, 0);
  engine.set_observer([&](Round, std::span<const Packet>, const Graph&,
                          const HierarchyView&) {
    for (std::size_t v = 0; v < views.size(); ++v) {
      const TokenSet& ta = views[v]->knowledge();
      EXPECT_GE(ta.count(), prev_counts[v]);  // monotone
      EXPECT_TRUE(ta.subset_of(all));         // no fabricated tokens
      prev_counts[v] = ta.count();
    }
  });
  engine.run({.max_rounds = 14, .stop_when_complete = false});
}

}  // namespace
}  // namespace hinet
