// KLO baselines, flooding family, and gossip.
#include <gtest/gtest.h>

#include "analysis/assignment.hpp"
#include "baseline/flooding.hpp"
#include "baseline/gossip.hpp"
#include "baseline/klo.hpp"
#include "graph/adversary.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "util/binary_io.hpp"

namespace hinet {
namespace {

/// CRC-32 of the whole SimMetrics in its on-disk encoding: any change to a
/// per-round or per-node series shows.
std::uint32_t metrics_crc(const SimMetrics& m) {
  ByteWriter w;
  save_metrics(w, m);
  return crc32(w.buffer());
}

/// A 1-interval connected trace with `k` tokens spread over 80 nodes, so a
/// token set spans two words.
struct TwoWordRun {
  static constexpr std::size_t kNodes = 80;
  static constexpr std::size_t kTokens = 70;
  static constexpr std::size_t kRounds = 40;
  GraphSequence net;
  std::vector<TokenSet> init;

  TwoWordRun() : net(trace()) {
    Rng rng(9);
    init = assign_tokens(kNodes, kTokens, AssignmentMode::kDistinctRandom, rng);
  }

  static GraphSequence trace() {
    AdversaryConfig cfg;
    cfg.nodes = kNodes;
    cfg.interval = 1;
    cfg.rounds = kRounds;
    cfg.churn_edges = 6;
    cfg.seed = 9;
    return make_t_interval_trace(cfg);
  }

  SimMetrics run(std::vector<ProcessPtr> processes) {
    Engine engine(net, nullptr, std::move(processes));
    return engine.run({.max_rounds = kRounds, .stop_when_complete = false});
  }
};

// ---------------- KLO full-broadcast token forwarding --------------------

TEST(KloFlood, DeliversOnOneIntervalConnectedTraceInNMinusOne) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    AdversaryConfig cfg;
    cfg.nodes = 25;
    cfg.interval = 1;
    cfg.rounds = 24;
    cfg.churn_edges = 2;
    cfg.seed = seed;
    GraphSequence net = make_t_interval_trace(cfg);

    Rng rng(seed);
    const auto init =
        assign_tokens(25, 5, AssignmentMode::kDistinctRandom, rng);
    KloFloodParams p;
    p.k = 5;
    p.rounds = 24;
    Engine engine(net, nullptr, make_klo_flood_processes(init, p));
    const SimMetrics m =
        engine.run({.max_rounds = 24, .stop_when_complete = false});
    EXPECT_TRUE(m.all_delivered) << "seed " << seed;
  }
}

TEST(KloFlood, CommunicationIsBoundedByWorstCase) {
  AdversaryConfig cfg;
  cfg.nodes = 20;
  cfg.interval = 1;
  cfg.rounds = 19;
  cfg.churn_edges = 0;
  cfg.seed = 1;
  GraphSequence net = make_t_interval_trace(cfg);
  Rng rng(1);
  const auto init = assign_tokens(20, 4, AssignmentMode::kDistinctRandom, rng);
  KloFloodParams p;
  p.k = 4;
  p.rounds = 19;
  Engine engine(net, nullptr, make_klo_flood_processes(init, p));
  const SimMetrics m =
      engine.run({.max_rounds = 19, .stop_when_complete = false});
  // Analytic worst case: (n-1) * n * k.
  EXPECT_LE(m.tokens_sent, 19u * 20u * 4u);
  EXPECT_GT(m.tokens_sent, 0u);
}

TEST(KloFlood, EmptyNodesStaySilent) {
  StaticNetwork net(gen::path(3));
  std::vector<TokenSet> init(3, TokenSet(2));
  init[1] = TokenSet(2, {0, 1});
  KloFloodParams p;
  p.k = 2;
  p.rounds = 2;
  Engine engine(net, nullptr, make_klo_flood_processes(init, p));
  TraceRecorder rec;
  engine.set_observer(rec.observer());
  engine.run({.max_rounds = 1, .stop_when_complete = false});
  ASSERT_EQ(rec.rounds()[0].packets.size(), 1u);
  EXPECT_EQ(rec.rounds()[0].packets[0].src, 1u);
}

// ---------------- KLO phase pipeline --------------------------------------

TEST(KloPipeline, BroadcastsMinUnsentAndClearsAtPhaseEnd) {
  StaticNetwork net(gen::complete(2));
  std::vector<TokenSet> init(2, TokenSet(3));
  init[0] = TokenSet(3, {0, 1, 2});
  KloPipelineParams p;
  p.k = 3;
  p.phase_length = 2;
  p.phases = 2;
  Engine engine(net, nullptr, make_klo_pipeline_processes(init, p));
  TraceRecorder rec;
  engine.set_observer(rec.observer());
  engine.run({.max_rounds = 4, .stop_when_complete = false});
  auto pkt_of = [&](Round r, NodeId src) -> const Packet* {
    for (const Packet& pk : rec.rounds()[r].packets) {
      if (pk.src == src) return &pk;
    }
    return nullptr;
  };
  // Node 0, phase 0: tokens 0 then 1.  Phase 1 (TS cleared): 0 then 1.
  EXPECT_EQ(pkt_of(0, 0)->tokens, TokenSet(3, {0}));
  EXPECT_EQ(pkt_of(1, 0)->tokens, TokenSet(3, {1}));
  EXPECT_EQ(pkt_of(2, 0)->tokens, TokenSet(3, {0}));
  EXPECT_EQ(pkt_of(3, 0)->tokens, TokenSet(3, {1}));
  // Node 1 learned tokens and pipelines them too from round 1.
  ASSERT_NE(pkt_of(1, 1), nullptr);
  EXPECT_EQ(pkt_of(1, 1)->tokens, TokenSet(3, {0}));
}

TEST(KloPipeline, DeliversOnTIntervalTraceWithPaperSchedule) {
  // Schedule from the paper's comparison row: T = k + αL rounds per phase,
  // ⌈n/(αL)⌉ phases.
  const std::size_t n = 24, k = 4, alpha = 2, l = 2;
  const std::size_t t = k + alpha * l;
  const std::size_t phases = (n + alpha * l - 1) / (alpha * l);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    AdversaryConfig cfg;
    cfg.nodes = n;
    cfg.interval = t;
    cfg.rounds = phases * t;
    cfg.churn_edges = 3;
    cfg.seed = seed;
    GraphSequence net = make_t_interval_trace(cfg);
    Rng rng(seed ^ 0xabcULL);
    const auto init =
        assign_tokens(n, k, AssignmentMode::kDistinctRandom, rng);
    KloPipelineParams p;
    p.k = k;
    p.phase_length = t;
    p.phases = phases;
    Engine engine(net, nullptr, make_klo_pipeline_processes(init, p));
    const SimMetrics m = engine.run(
        {.max_rounds = phases * t, .stop_when_complete = false});
    EXPECT_TRUE(m.all_delivered) << "seed " << seed;
  }
}

// ---------------- Flooding family ----------------------------------------

TEST(Flooding, ActivityCoveringTheScheduleIsKloFlood) {
  // Classic flooding is KLO's token forwarding: with an activity covering
  // the whole schedule a node sends every token it knows every round, so
  // every metric equals KLO flood's.  On ablation A3's adversarial
  // T-interval traces.
  constexpr std::size_t kNodes = 24;
  constexpr std::size_t kTokens = 6;
  constexpr std::size_t kHorizon = 6 * kNodes;
  for (std::size_t interval : {1u, 4u, 8u}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      AdversaryConfig cfg;
      cfg.nodes = kNodes;
      cfg.interval = interval;
      cfg.rounds = kHorizon;
      cfg.churn_edges = 3;
      cfg.seed = seed;
      Rng rng(seed ^ 0x4242ULL);
      const auto init = assign_tokens(kNodes, kTokens,
                                      AssignmentMode::kDistinctRandom, rng);

      GraphSequence flood_net = make_t_interval_trace(cfg);
      FloodingParams fp;
      fp.k = kTokens;
      fp.rounds = kHorizon;
      fp.activity = kHorizon;
      Engine flooding(flood_net, nullptr, make_flooding_processes(init, fp));

      GraphSequence klo_net = make_t_interval_trace(cfg);
      KloFloodParams kp;
      kp.k = kTokens;
      kp.rounds = kHorizon;
      Engine klo(klo_net, nullptr, make_klo_flood_processes(init, kp));

      const SimMetrics m =
          flooding.run({.max_rounds = kHorizon, .stop_when_complete = true});
      EXPECT_TRUE(m.all_delivered);
      EXPECT_EQ(m, klo.run({.max_rounds = kHorizon,
                            .stop_when_complete = true}))
          << "T=" << interval << " seed " << seed;
    }
  }
}

TEST(Flooding, ActivityWindowSilencesOldTokens) {
  // Static path, activity 1: a node forwards a token only in the round
  // right after learning it.
  StaticNetwork net(gen::path(4));
  std::vector<TokenSet> init(4, TokenSet(1));
  init[0].insert(0);
  FloodingParams p;
  p.k = 1;
  p.rounds = 10;
  p.activity = 1;
  Engine engine(net, nullptr, make_flooding_processes(init, p));
  TraceRecorder rec;
  engine.set_observer(rec.observer());
  const SimMetrics m =
      engine.run({.max_rounds = 10, .stop_when_complete = false});
  EXPECT_TRUE(m.all_delivered);  // the wave still crosses the path
  // With activity=1 the wavefront passes each node once: node 0 transmits
  // only in round 0 (it learned at round 0 per initialisation).
  std::size_t node0_sends = 0;
  for (const auto& rr : rec.rounds()) {
    for (const Packet& pk : rr.packets) {
      if (pk.src == 0) ++node0_sends;
    }
  }
  EXPECT_EQ(node0_sends, 1u);
  // Parsimonious flooding sends far fewer packets than classic flooding
  // would (which transmits every round at every informed node).
  EXPECT_LE(m.packets_sent, 2u * 4u);
}

TEST(Flooding, MetricsArePinned) {
  // However receive() walks a packet, it must learn the same tokens in the
  // same round: every value below is pinned.
  TwoWordRun r;
  FloodingParams p;
  p.k = TwoWordRun::kTokens;
  p.rounds = TwoWordRun::kRounds;
  p.activity = 3;
  const SimMetrics m = r.run(make_flooding_processes(r.init, p));
  EXPECT_EQ(m.packets_sent, 600u);
  EXPECT_EQ(m.tokens_sent, 16800u);
  EXPECT_EQ(m.rounds_to_completion, 6u);
  EXPECT_EQ(metrics_crc(m), 3797553803u);
}

TEST(Flooding, PacketOverAnotherUniverseThrowsBeforeItIsRead) {
  // A process that knows the same k tokens as its flooding neighbour but
  // sends a set over a larger universe: flooding must refuse the packet
  // before it walks its words against its own.
  class OversizedSender final : public Process {
   public:
    std::optional<Packet> transmit(const RoundContext& ctx) override {
      Packet pkt;
      pkt.src = ctx.self;
      pkt.dest = kBroadcastDest;
      pkt.tokens = TokenSet(300, {299});
      return pkt;
    }
    void receive(const RoundContext&, InboxView) override {}
    const TokenSet& knowledge() const override { return ta_; }

   private:
    TokenSet ta_{4, {1}};
  };
  StaticNetwork net(gen::path(2));
  FloodingParams p;
  p.k = 4;
  p.rounds = 3;
  p.activity = 3;
  std::vector<ProcessPtr> procs;
  procs.push_back(std::make_unique<FloodingProcess>(0, TokenSet(4, {0}), p));
  procs.push_back(std::make_unique<OversizedSender>());
  Engine engine(net, nullptr, std::move(procs));
  EXPECT_THROW(engine.run({.max_rounds = 3, .stop_when_complete = false}),
               PreconditionError);
}

TEST(Flooding, RejectsZeroActivity) {
  FloodingParams p;
  p.k = 2;
  p.rounds = 4;
  EXPECT_THROW(FloodingProcess(0, TokenSet(2, {0}), p), PreconditionError);
}

TEST(Flooding, HigherActivityCostsMorePackets) {
  StaticNetwork net1(gen::ring(8));
  StaticNetwork net2(gen::ring(8));
  std::vector<TokenSet> init(8, TokenSet(1));
  init[0].insert(0);
  FloodingParams lo;
  lo.k = 1;
  lo.rounds = 8;
  lo.activity = 1;
  FloodingParams hi = lo;
  hi.activity = lo.rounds;  // classic flooding
  Engine e1(net1, nullptr, make_flooding_processes(init, lo));
  Engine e2(net2, nullptr, make_flooding_processes(init, hi));
  const SimMetrics m1 = e1.run({.max_rounds = 8, .stop_when_complete = false});
  const SimMetrics m2 = e2.run({.max_rounds = 8, .stop_when_complete = false});
  EXPECT_TRUE(m1.all_delivered);
  EXPECT_TRUE(m2.all_delivered);
  EXPECT_LT(m1.packets_sent, m2.packets_sent);
}

// ---------------- Gossip ---------------------------------------------------

TEST(Gossip, OnlyAddresseeConsumes) {
  StaticNetwork net(gen::star(5));
  std::vector<TokenSet> init(5, TokenSet(1));
  init[0].insert(0);  // hub gossips to one leaf per round
  GossipParams p;
  p.k = 1;
  p.rounds = 1;
  p.seed = 3;
  auto procs = make_gossip_processes(init, p);
  std::vector<const Process*> views;
  for (const auto& pr : procs) views.push_back(pr.get());
  Engine engine(net, nullptr, std::move(procs));
  engine.run({.max_rounds = 1, .stop_when_complete = false});
  // The hub pushed to exactly one leaf; the broadcast medium delivered the
  // packet to all leaves, but only the addressee may consume it.
  std::size_t holders = 0;
  for (const Process* pr : views) {
    if (pr->knowledge().contains(0)) ++holders;
  }
  EXPECT_EQ(holders, 2u);  // hub + exactly one chosen leaf
}

TEST(Gossip, EventuallyDeliversOnCompleteGraphWithHighProbability) {
  StaticNetwork net(gen::complete(12));
  Rng rng(9);
  const auto init = assign_tokens(12, 3, AssignmentMode::kDistinctRandom, rng);
  GossipParams p;
  p.k = 3;
  p.rounds = 400;
  p.seed = 12;
  Engine engine(net, nullptr, make_gossip_processes(init, p));
  const SimMetrics m =
      engine.run({.max_rounds = 400, .stop_when_complete = true});
  EXPECT_TRUE(m.all_delivered);
  EXPECT_LT(m.rounds_to_completion, 400u);
}

TEST(Gossip, PushFullSetSpeedsUpDelivery) {
  StaticNetwork net1(gen::complete(12));
  StaticNetwork net2(gen::complete(12));
  Rng rng(10);
  const auto init = assign_tokens(12, 4, AssignmentMode::kDistinctRandom, rng);
  GossipParams one;
  one.k = 4;
  one.rounds = 500;
  one.seed = 7;
  GossipParams full = one;
  full.push_full_set = true;
  Engine e1(net1, nullptr, make_gossip_processes(init, one));
  Engine e2(net2, nullptr, make_gossip_processes(init, full));
  const SimMetrics m1 =
      e1.run({.max_rounds = 500, .stop_when_complete = true});
  const SimMetrics m2 =
      e2.run({.max_rounds = 500, .stop_when_complete = true});
  ASSERT_TRUE(m1.all_delivered);
  ASSERT_TRUE(m2.all_delivered);
  EXPECT_LE(m2.rounds_to_completion, m1.rounds_to_completion);
}

TEST(Gossip, DeterministicPerSeed) {
  StaticNetwork net1(gen::complete(8));
  StaticNetwork net2(gen::complete(8));
  Rng rng(2);
  const auto init = assign_tokens(8, 2, AssignmentMode::kDistinctRandom, rng);
  GossipParams p;
  p.k = 2;
  p.rounds = 100;
  p.seed = 42;
  Engine e1(net1, nullptr, make_gossip_processes(init, p));
  Engine e2(net2, nullptr, make_gossip_processes(init, p));
  const SimMetrics m1 =
      e1.run({.max_rounds = 100, .stop_when_complete = true});
  const SimMetrics m2 =
      e2.run({.max_rounds = 100, .stop_when_complete = true});
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(metrics_crc(m1), 1792730443u);
}

TEST(Gossip, SingleTokenPicksArePinned) {
  // The pushed token is the set bit whose rank is the draw, the token an
  // index into the ascending token list would give: the values are pinned.
  TwoWordRun r;
  GossipParams p;
  p.k = TwoWordRun::kTokens;
  p.rounds = TwoWordRun::kRounds;
  p.seed = 42;
  const SimMetrics m = r.run(make_gossip_processes(r.init, p));
  EXPECT_EQ(m.packets_sent, 3186u);
  EXPECT_EQ(m.tokens_sent, 3186u);
  EXPECT_EQ(metrics_crc(m), 2069994612u);
}

}  // namespace
}  // namespace hinet
