// Channel models (failure injection) and energy accounting.
#include "sim/channel.hpp"

#include <gtest/gtest.h>

#include "analysis/assignment.hpp"
#include "baseline/klo.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace hinet {
namespace {

std::vector<ProcessPtr> flood_processes(std::size_t n, std::size_t k,
                                        std::size_t rounds) {
  std::vector<TokenSet> init(n, TokenSet(k));
  for (TokenId t = 0; t < k; ++t) init[0].insert(t);
  KloFloodParams p;
  p.k = k;
  p.rounds = rounds;
  return make_klo_flood_processes(init, p);
}

TEST(LossyChannel, ZeroLossMatchesPerfect) {
  StaticNetwork net(gen::path(4));
  LossyChannel channel(0.0, 1);
  Engine engine(net, nullptr, flood_processes(4, 2, 10));
  engine.set_channel(&channel);
  const SimMetrics m =
      engine.run({.max_rounds = 10, .stop_when_complete = true});
  EXPECT_EQ(m.rounds_to_completion, 3u);
}

TEST(LossyChannel, TotalLossBlocksEverything) {
  StaticNetwork net(gen::complete(4));
  LossyChannel channel(1.0, 1);
  Engine engine(net, nullptr, flood_processes(4, 2, 6));
  engine.set_channel(&channel);
  const SimMetrics m =
      engine.run({.max_rounds = 6, .stop_when_complete = true});
  EXPECT_FALSE(m.all_delivered);
  // Packets were transmitted (and paid for) but nothing was received.
  EXPECT_GT(m.packets_sent, 0u);
  for (std::size_t rx : m.per_node_rx_tokens) EXPECT_EQ(rx, 0u);
}

TEST(LossyChannel, PartialLossDelaysButFloodingRecovers) {
  StaticNetwork net(gen::path(6));
  LossyChannel lossy(0.4, 7);
  Engine e_lossy(net, nullptr, flood_processes(6, 2, 60));
  e_lossy.set_channel(&lossy);
  const SimMetrics m_lossy =
      e_lossy.run({.max_rounds = 60, .stop_when_complete = true});

  StaticNetwork net2(gen::path(6));
  Engine e_clean(net2, nullptr, flood_processes(6, 2, 60));
  const SimMetrics m_clean =
      e_clean.run({.max_rounds = 60, .stop_when_complete = true});

  ASSERT_TRUE(m_clean.all_delivered);
  ASSERT_TRUE(m_lossy.all_delivered);  // repetition heals iid loss
  EXPECT_GE(m_lossy.rounds_to_completion, m_clean.rounds_to_completion);
}

TEST(LossyChannel, DeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    StaticNetwork net(gen::ring(8));
    LossyChannel channel(0.3, seed);
    Engine engine(net, nullptr, flood_processes(8, 3, 40));
    engine.set_channel(&channel);
    return engine.run({.max_rounds = 40, .stop_when_complete = true});
  };
  const SimMetrics a = run(5);
  const SimMetrics b = run(5);
  EXPECT_EQ(a.rounds_to_completion, b.rounds_to_completion);
  EXPECT_EQ(a.tokens_sent, b.tokens_sent);
}

TEST(LossyChannel, RejectsBadLoss) {
  EXPECT_THROW(LossyChannel(-0.1, 1), PreconditionError);
  EXPECT_THROW(LossyChannel(1.1, 1), PreconditionError);
}

TEST(CollisionChannel, SingleTransmitterAlwaysHeard) {
  StaticNetwork net(gen::star(5));
  CollisionChannel channel(1);
  Engine engine(net, nullptr, flood_processes(5, 2, 4));
  engine.set_channel(&channel);
  const SimMetrics m =
      engine.run({.max_rounds = 4, .stop_when_complete = true});
  // Round 0: only the hub... wait, node 0 is the hub of gen::star.  Only
  // node 0 transmits, so no collisions anywhere; leaves hear it.  Round 1
  // onwards all 5 transmit: every leaf has 1 transmitting neighbour (the
  // hub), the hub has 4 > 1 and hears nothing more (it already has all).
  EXPECT_TRUE(m.all_delivered);
  EXPECT_EQ(m.rounds_to_completion, 1u);
}

TEST(CollisionChannel, CongestionSilencesReceivers) {
  // Complete graph: once >capture nodes transmit, nobody hears anything.
  StaticNetwork net(gen::complete(5));
  CollisionChannel channel(1);
  std::vector<TokenSet> init(5, TokenSet(5));
  for (NodeId v = 0; v < 5; ++v) init[v].insert(v);  // everyone transmits
  KloFloodParams p;
  p.k = 5;
  p.rounds = 10;
  Engine engine(net, nullptr, make_klo_flood_processes(init, p));
  engine.set_channel(&channel);
  const SimMetrics m =
      engine.run({.max_rounds = 10, .stop_when_complete = true});
  // Every node always has 4 transmitting neighbours > capture 1: deadlock.
  EXPECT_FALSE(m.all_delivered);
}

TEST(CollisionChannel, HighCaptureBehavesLikePerfect) {
  StaticNetwork net(gen::complete(5));
  CollisionChannel channel(16);
  std::vector<TokenSet> init(5, TokenSet(5));
  for (NodeId v = 0; v < 5; ++v) init[v].insert(v);
  KloFloodParams p;
  p.k = 5;
  p.rounds = 10;
  Engine engine(net, nullptr, make_klo_flood_processes(init, p));
  engine.set_channel(&channel);
  const SimMetrics m =
      engine.run({.max_rounds = 10, .stop_when_complete = true});
  EXPECT_TRUE(m.all_delivered);
  EXPECT_EQ(m.rounds_to_completion, 1u);
}

TEST(CollisionChannel, RejectsZeroCapture) {
  EXPECT_THROW(CollisionChannel(0), PreconditionError);
}

TEST(Energy, AccountsTxAndRxPerNode) {
  // Star, hub holds 2 tokens, one round: hub transmits 2 tokens, each of
  // the 3 leaves receives 2.
  StaticNetwork net(gen::star(4));
  Engine engine(net, nullptr, flood_processes(4, 2, 1));
  const SimMetrics m =
      engine.run({.max_rounds = 1, .stop_when_complete = false});
  ASSERT_EQ(m.per_node_tx_tokens.size(), 4u);
  EXPECT_EQ(m.per_node_tx_tokens[0], 2u);
  EXPECT_EQ(m.per_node_tx_tokens[1], 0u);
  EXPECT_EQ(m.per_node_rx_tokens[0], 0u);
  EXPECT_EQ(m.per_node_rx_tokens[1], 2u);
  EXPECT_EQ(m.per_node_rx_tokens[3], 2u);

  EnergyModel e;  // tx=1, rx=0.5, idle=0
  EXPECT_DOUBLE_EQ(total_energy(m, e), 2.0 + 3 * 2 * 0.5);
  EXPECT_DOUBLE_EQ(max_node_energy(m, e), 2.0);  // the hub
  EnergyModel idle{1.0, 0.5, 0.25};
  EXPECT_DOUBLE_EQ(total_energy(m, idle), 5.0 + 0.25 * 1 * 4);
}

TEST(Energy, EmptyRunIsZero) {
  SimMetrics m;
  EXPECT_DOUBLE_EQ(total_energy(m, EnergyModel{}), 0.0);
  EXPECT_DOUBLE_EQ(max_node_energy(m, EnergyModel{}), 0.0);
}

}  // namespace
}  // namespace hinet
