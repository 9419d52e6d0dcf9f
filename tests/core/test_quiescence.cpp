// Adaptive quiescence termination for Algorithm 2 (the paper's "stop
// broadcasting after a specific number of time intervals" taken
// adaptively) — cost savings and the delivery risk it trades for.
#include <gtest/gtest.h>

#include "analysis/assignment.hpp"
#include "core/alg2.hpp"
#include "core/hinet_generator.hpp"
#include "sim/engine.hpp"

namespace hinet {
namespace {

HiNetTrace one_l_trace(std::size_t nodes, std::uint64_t seed) {
  HiNetConfig gen;
  gen.nodes = nodes;
  gen.heads = nodes / 6;
  gen.phase_length = 1;
  gen.phases = nodes - 1;
  gen.hop_l = 2;
  gen.reaffiliation_prob = 0.1;
  gen.seed = seed;
  return make_hinet_trace(gen);
}

TEST(Alg2Quiescence, CutsCommunicationWhileStillDelivering) {
  const std::size_t n = 48;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    HiNetTrace t1 = one_l_trace(n, seed);
    HiNetTrace t2 = one_l_trace(n, seed);
    Rng rng(seed ^ 0xf00dULL);
    const auto init =
        assign_tokens(n, 5, AssignmentMode::kDistinctRandom, rng);

    Alg2Params plain;
    plain.k = 5;
    plain.rounds = n - 1;
    Engine e1(t1.ctvg.topology(), &t1.ctvg.hierarchy(),
              make_alg2_processes(init, plain));
    const SimMetrics m1 =
        e1.run({.max_rounds = n - 1, .stop_when_complete = false});

    Alg2Params adaptive = plain;
    adaptive.quiescence_rounds = 6;
    Engine e2(t2.ctvg.topology(), &t2.ctvg.hierarchy(),
              make_alg2_processes(init, adaptive));
    const SimMetrics m2 =
        e2.run({.max_rounds = n - 1, .stop_when_complete = false});

    ASSERT_TRUE(m1.all_delivered) << "seed " << seed;
    EXPECT_TRUE(m2.all_delivered) << "seed " << seed;
    EXPECT_LT(m2.tokens_sent, m1.tokens_sent) << "seed " << seed;
  }
}

TEST(Alg2Quiescence, NodesWakeUpWhenNewTokensArrive) {
  // A path where the far end only gets connected late would exercise
  // wake-up; here we simulate it directly through a two-component trace
  // that merges at round 10.
  const std::size_t n = 6;
  std::vector<Graph> graphs;
  std::vector<HierarchyView> views;
  for (Round r = 0; r < 30; ++r) {
    std::vector<Edge> edges{{0, 1}, {0, 2}, {3, 4}, {3, 5}};
    if (r >= 10) edges.push_back({2, 5});  // bridge appears late
    HierarchyView h(n);
    h.set_head(0);
    h.set_head(3);
    h.set_member(1, 0);
    h.set_member(2, 0, true);
    h.set_member(4, 3);
    h.set_member(5, 3, true);
    graphs.emplace_back(n, edges);
    views.push_back(std::move(h));
  }
  Ctvg world(GraphSequence(std::move(graphs)),
             HierarchySequence(std::move(views)));

  std::vector<TokenSet> init(n, TokenSet(2));
  init[1].insert(0);  // one token per component
  init[4].insert(1);
  Alg2Params p;
  p.k = 2;
  p.rounds = 30;
  p.quiescence_rounds = 3;  // both components go quiet well before round 10
  Engine engine(world.topology(), &world.hierarchy(),
                make_alg2_processes(init, p));
  const SimMetrics m =
      engine.run({.max_rounds = 30, .stop_when_complete = false});
  // Without wake-up the merged bridge would be useless; with it, the
  // gateways resume relaying once fresh tokens cross at round >= 10...
  // but a fully quiet network has nothing to restart it.  Check the
  // actual semantic: heads keep broadcasting until quiescent, so at round
  // 10 gateways 2 and 5 are silent.  Delivery across the late bridge
  // requires *someone* still talking; quiescence q=3 silences everyone by
  // round ~4, so the bridge arrives too late and delivery fails.
  EXPECT_FALSE(m.all_delivered);
  // The control run without quiescence does deliver.
  std::vector<Graph> graphs2;
  std::vector<HierarchyView> views2;
  for (Round r = 0; r < 30; ++r) {
    std::vector<Edge> edges{{0, 1}, {0, 2}, {3, 4}, {3, 5}};
    if (r >= 10) edges.push_back({2, 5});
    HierarchyView h(n);
    h.set_head(0);
    h.set_head(3);
    h.set_member(1, 0);
    h.set_member(2, 0, true);
    h.set_member(4, 3);
    h.set_member(5, 3, true);
    graphs2.emplace_back(n, edges);
    views2.push_back(std::move(h));
  }
  Ctvg world2(GraphSequence(std::move(graphs2)),
              HierarchySequence(std::move(views2)));
  Alg2Params full = p;
  full.quiescence_rounds = 0;
  Engine engine2(world2.topology(), &world2.hierarchy(),
                 make_alg2_processes(init, full));
  const SimMetrics m2 =
      engine2.run({.max_rounds = 30, .stop_when_complete = false});
  EXPECT_TRUE(m2.all_delivered);
}

}  // namespace
}  // namespace hinet
