// Loss-tolerant Algorithm 1/2 variants: bounded retransmission with
// ACK-aware member resends, Remark 1's silent members, Alg2 periodic
// member re-upload — plus the head-crash repair integration test.
#include <gtest/gtest.h>

#include "cluster/maintenance.hpp"
#include "core/alg1.hpp"
#include "core/alg2.hpp"
#include "core/hinet_properties.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"

namespace hinet {
namespace {

// --- Alg1: head retransmit budget ---------------------------------------

/// Drives one process round by round and records the tokens it sends
/// (std::nullopt round = silent).
std::vector<std::optional<TokenId>> drive_transmits(Alg1Process& p,
                                                    const Graph& g,
                                                    const HierarchyView& h,
                                                    Round rounds) {
  std::vector<std::optional<TokenId>> sent;
  for (Round r = 0; r < rounds; ++r) {
    RoundContext ctx{r, 0, &g, &h};
    auto pkt = p.transmit(ctx);
    if (pkt) {
      sent.push_back(pkt->tokens.min_element());
    } else {
      sent.push_back(std::nullopt);
    }
    p.receive(ctx, {});
  }
  return sent;
}

TEST(RobustAlg1, HeadResweepsUpToBudget) {
  const Graph g(2, {{0, 1}});
  HierarchyView h(2);
  h.set_head(0);
  h.set_member(1, 0);

  Alg1Params params;
  params.k = 2;
  params.phase_length = 7;
  params.phases = 1;
  params.retransmit_budget = 2;
  Alg1Process head(0, TokenSet(2, {0, 1}), params);
  const auto sent = drive_transmits(head, g, h, 7);
  // Three full sweeps (1 scheduled + 2 retransmits), then silence.
  const std::vector<std::optional<TokenId>> expect = {0, 1, 0, 1, 0, 1,
                                                      std::nullopt};
  EXPECT_EQ(sent, expect);
  EXPECT_EQ(head.resend_sweeps(), 2u);
}

TEST(RobustAlg1, DefaultBudgetKeepsPaperSchedule) {
  const Graph g(2, {{0, 1}});
  HierarchyView h(2);
  h.set_head(0);
  h.set_member(1, 0);

  Alg1Params params;
  params.k = 2;
  params.phase_length = 5;
  params.phases = 1;
  Alg1Process head(0, TokenSet(2, {0, 1}), params);
  const auto sent = drive_transmits(head, g, h, 5);
  const std::vector<std::optional<TokenId>> expect = {
      0, 1, std::nullopt, std::nullopt, std::nullopt};
  EXPECT_EQ(sent, expect);
}

TEST(RobustAlg1, BudgetResetsAtPhaseBoundary) {
  const Graph g(2, {{0, 1}});
  HierarchyView h(2);
  h.set_head(0);
  h.set_member(1, 0);

  Alg1Params params;
  params.k = 1;
  params.phase_length = 3;
  params.phases = 2;
  params.retransmit_budget = 1;
  Alg1Process head(0, TokenSet(1, {0}), params);
  const auto sent = drive_transmits(head, g, h, 6);
  // Per phase: scheduled sweep, one resweep, silence — in both phases.
  const std::vector<std::optional<TokenId>> expect = {0, 0, std::nullopt,
                                                      0, 0, std::nullopt};
  EXPECT_EQ(sent, expect);
}

// --- Alg1: member ACK piggybacking --------------------------------------

/// Member of head 0 holding {0,1,2}; the head echoes token 1 in round 0.
/// Returns the member's send sequence over `rounds` rounds.
std::vector<std::optional<TokenId>> member_resend_sequence(Round rounds) {
  const Graph g(2, {{0, 1}});
  HierarchyView h(2);
  h.set_head(0);
  h.set_member(1, 0);

  Alg1Params params;
  params.k = 3;
  params.phase_length = rounds;
  params.phases = 1;
  params.retransmit_budget = 1;
  Alg1Process member(1, TokenSet(3, {0, 1, 2}), params);

  Packet echo;
  echo.src = 0;  // the cluster head
  echo.tokens = TokenSet(3, {1});
  const PacketView echo_view = &echo;

  std::vector<std::optional<TokenId>> sent;
  for (Round r = 0; r < rounds; ++r) {
    RoundContext ctx{r, 1, &g, &h};
    auto pkt = member.transmit(ctx);
    if (pkt) {
      EXPECT_EQ(pkt->dest, 0u);
      sent.push_back(pkt->tokens.min_element());
    } else {
      sent.push_back(std::nullopt);
    }
    member.receive(ctx, r == 0 ? InboxView(&echo_view, 1) : InboxView{});
  }
  return sent;
}

TEST(RobustAlg1, AckPiggybackSkipsEchoedTokensOnResend) {
  // Round 0 uploads max = 2, then the head's echo of 1 lands in TR, so the
  // scheduled sweep sends only 0.  The ACK-aware resend sweep re-uploads
  // TA \ TR = {0, 2}; the echoed token 1 is never re-sent.
  const auto sent = member_resend_sequence(6);
  const std::vector<std::optional<TokenId>> expect = {2, 0,           2, 0,
                                                      std::nullopt, std::nullopt};
  EXPECT_EQ(sent, expect);
}

// --- Alg1: Remark 1 under re-affiliation churn --------------------------

TEST(RobustAlg1, Remark1MemberStaysSilentAfterFirstPhase) {
  // Two heads; node 2 is a member of head 0 in phase 0 and of head 1 in
  // phase 1 (re-affiliation churn the pure Remark-1 mode ignores).
  const Graph g(3, {{0, 1}, {0, 2}, {1, 2}});
  HierarchyView phase0(3);
  phase0.set_head(0);
  phase0.set_head(1);
  phase0.set_member(2, 0);
  HierarchyView phase1(3);
  phase1.set_head(0);
  phase1.set_head(1);
  phase1.set_member(2, 1);

  Alg1Params params;
  params.k = 1;
  params.phase_length = 3;
  params.phases = 2;
  params.stable_head_optimisation = true;
  Alg1Process member(2, TokenSet(1, {0}), params);

  std::size_t uploads_in_phase1 = 0;
  for (Round r = 0; r < 6; ++r) {
    const HierarchyView& h = r < 3 ? phase0 : phase1;
    RoundContext ctx{r, 2, &g, &h};
    if (member.transmit(ctx) && r >= 3) ++uploads_in_phase1;
    member.receive(ctx, {});
  }
  EXPECT_EQ(uploads_in_phase1, 0u);
}

// --- Alg2: periodic member re-upload ------------------------------------

/// Drops every packet in rounds < `until` (a startup outage), perfect after.
class OutageChannel final : public ChannelModel {
 public:
  explicit OutageChannel(Round until) : until_(until) {}
  bool deliver(Round r, const Packet&, NodeId) override {
    return r >= until_;
  }

 private:
  Round until_;
};

SimMetrics run_alg2_with_startup_outage(std::size_t reupload_interval) {
  // Star: head 0, members 1..3; member 1 holds the only token.  The
  // member's single Fig. 5 upload happens in round 0 and is lost.
  StaticNetwork net(gen::star(4));
  HierarchyView h(4);
  h.set_head(0);
  for (NodeId v = 1; v < 4; ++v) h.set_member(v, 0);
  HierarchySequence hier({h});

  std::vector<TokenSet> init(4, TokenSet(1));
  init[1].insert(0);
  Alg2Params params;
  params.k = 1;
  params.rounds = 12;
  params.member_reupload_interval = reupload_interval;

  OutageChannel channel(2);
  Engine engine(net, &hier, make_alg2_processes(init, params));
  engine.set_channel(&channel);
  return engine.run({.max_rounds = 12, .stop_when_complete = true});
}

TEST(RobustAlg2, PaperScheduleStallsWhenTheOnlyUploadIsLost) {
  const SimMetrics m = run_alg2_with_startup_outage(0);
  EXPECT_FALSE(m.all_delivered);
  EXPECT_LT(m.token_coverage(), 1.0);
}

TEST(RobustAlg2, PeriodicReuploadRecoversTheLostUpload) {
  const SimMetrics m = run_alg2_with_startup_outage(4);
  EXPECT_TRUE(m.all_delivered);
}

TEST(RobustAlg2, ReuploadStopsOnceBackboneEchoes) {
  // With a perfect channel the upload lands in round 0 and the head echoes
  // it from round 1 on — the periodic re-upload must then stay quiet, so
  // communication matches the paper schedule's token count.
  StaticNetwork net(gen::star(3));
  HierarchyView h(3);
  h.set_head(0);
  h.set_member(1, 0);
  h.set_member(2, 0);
  HierarchySequence hier({h});
  std::vector<TokenSet> init(3, TokenSet(1));
  init[1].insert(0);

  auto run = [&](std::size_t interval) {
    Alg2Params params;
    params.k = 1;
    params.rounds = 10;
    params.member_reupload_interval = interval;
    StaticNetwork net_copy(net.graph_at(0));
    HierarchySequence hier_copy({h});
    Engine engine(net_copy, &hier_copy, make_alg2_processes(init, params));
    return engine.run({.max_rounds = 10, .stop_when_complete = false});
  };
  const SimMetrics base = run(0);
  const SimMetrics robust = run(3);
  EXPECT_TRUE(base.all_delivered);
  EXPECT_TRUE(robust.all_delivered);
  EXPECT_EQ(base.tokens_sent, robust.tokens_sent)
      << "re-upload fired although every token was acknowledged";
}

// --- Integration: head crash, repair, survivors complete ----------------

TEST(RobustIntegration, HeadCrashIsRepairedAndSurvivorsComplete) {
  // Star hub 0 heads every node; a leaf ring keeps survivors connected.
  // The hub — the lowest-id cluster head — crashes permanently mid-run.
  constexpr std::size_t n = 6;
  constexpr std::size_t rounds = 64;
  StaticNetwork base([&] {
    std::vector<Edge> edges = gen::star(n).edges();
    for (NodeId v = 1; v < n - 1; ++v) edges.push_back({v, v + 1});
    edges.push_back({1, n - 1});
    return Graph(n, edges);
  }());

  FaultPlan plan;
  plan.crashes.push_back({0, 5});  // permanent
  FaultyNetwork faulty(base, plan);

  // Freeze the realized topology and re-cluster over it: the maintainer
  // must notice the dead head and repair.
  GraphSequence realized = materialize(faulty, rounds);
  MaintainedHierarchy maintained = maintain_over(realized, rounds);
  EXPECT_GE(maintained.stats.head_promotions, 1u);
  EXPECT_GE(maintained.stats.reaffiliations, 1u);

  // The monitor must flag the crash window against the schedule's (T, L).
  {
    GraphSequence monitor_trace = materialize(faulty, rounds);
    HierarchySequence monitor_hier(maintained.hierarchy.rounds());
    Ctvg ctvg(std::move(monitor_trace), std::move(monitor_hier));
    const AssumptionReport report = monitor_assumptions(ctvg, rounds, 8, 2);
    EXPECT_GE(report.violated_windows(), 1u);
    ASSERT_TRUE(report.first_violation_round().has_value());
    EXPECT_LE(*report.first_violation_round(), 5u);
  }

  // Robust Alg1 over the repaired hierarchy: tokens live on survivors.
  std::vector<TokenSet> init(n, TokenSet(2));
  init[1].insert(0);
  init[4].insert(1);
  Alg1Params params;
  params.k = 2;
  params.phase_length = 8;
  params.phases = rounds / 8;
  params.retransmit_budget = 3;
  auto procs = make_alg1_processes(init, params);
  std::vector<const Process*> views;
  for (const auto& p : procs) views.push_back(p.get());

  Engine engine(realized, &maintained.hierarchy, std::move(procs));
  engine.run({.max_rounds = rounds, .stop_when_complete = false});
  for (NodeId v = 1; v < n; ++v) {
    EXPECT_TRUE(views[v]->knowledge().full()) << "survivor " << v;
  }
}

}  // namespace
}  // namespace hinet
