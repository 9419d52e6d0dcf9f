// Heap allocations in the engine's steady-state rounds.
//
// A round moves one TokenSet per transmitting node into the packet buffer
// and unites every delivered one into a receiver's state.  With k <= 128 a
// TokenSet holds its words inline, so once the engine's scratch buffers
// have grown to their high-water marks a round allocates nothing.  This
// binary replaces the global operator new with a counting one (which is
// why it is an executable of its own) and counts the allocations made
// inside Engine::step after the first rounds, for the built-in algorithms,
// network coding's coded packets included.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "analysis/scenarios.hpp"
#include "baseline/flooding.hpp"
#include "baseline/gossip.hpp"
#include "baseline/network_coding.hpp"
#include "sim/engine.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hinet {
namespace {

/// Rounds before counting starts: the packet buffer and the inbox arrays
/// grow to their working size in the first rounds.
constexpr Round kWarmupRounds = 5;
constexpr std::size_t kRounds = 40;

struct StepCount {
  std::size_t allocations = 0;  ///< inside step() from kWarmupRounds on
  std::size_t packets = 0;      ///< sent in those rounds
  SimMetrics metrics;
};

StepCount count_step_allocations(SimulationSpec spec, std::size_t rounds) {
  EngineConfig cfg = spec.engine;
  cfg.max_rounds = rounds;
  cfg.stop_when_complete = false;
  Engine engine(std::move(spec));
  StepCount out;
  engine.set_observer([&out](Round r, std::span<const Packet> packets,
                             const Graph&, const HierarchyView&) {
    if (r >= kWarmupRounds) out.packets += packets.size();
  });
  engine.start(cfg);
  for (Round r = 0;; ++r) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const bool more = engine.step();
    if (r >= kWarmupRounds) {
      out.allocations += g_allocations.load(std::memory_order_relaxed) - before;
    }
    if (!more) break;
  }
  out.metrics = engine.finish();
  return out;
}

/// Scenario `s` on a materialized trace that covers `rounds` rounds (a
/// streamed trace synthesizes, and so allocates, inside step()).
SimulationSpec materialized(Scenario s, const ScenarioConfig& cfg,
                            std::uint64_t seed, std::size_t rounds) {
  ScenarioSchedule sched;
  HiNetConfig gen = scenario_generator(s, cfg, seed, &sched);
  gen.phases = (rounds + sched.phase_length - 1) / sched.phase_length;
  return make_scenario_from_trace(s, cfg, make_hinet_trace(gen), seed).spec;
}

ScenarioConfig config(std::size_t k) {
  ScenarioConfig cfg;
  cfg.nodes = 200;
  cfg.heads = 25;
  cfg.k = k;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  return cfg;
}

// KLO flood, classic flooding, is the klo-one scenario's algorithm.
enum class Algorithm {
  kParsimoniousFlooding,
  kGossip,
  kGossipFullSet,
  kNetworkCoding,
};

/// A baseline on the klo-one trace (KLO flood's).
SimulationSpec baseline_spec(Algorithm algorithm, std::size_t k) {
  const ScenarioConfig cfg = config(k);
  SimulationSpec spec = materialized(Scenario::kKloOne, cfg, 3, kRounds);
  Rng rng(3);
  const auto init =
      assign_tokens(cfg.nodes, k, AssignmentMode::kDistinctRandom, rng);
  switch (algorithm) {
    case Algorithm::kParsimoniousFlooding: {
      FloodingParams p;
      p.k = k;
      p.rounds = kRounds;
      p.activity = 3;
      spec.processes = make_flooding_processes(init, p);
      break;
    }
    case Algorithm::kGossip:
    case Algorithm::kGossipFullSet: {
      GossipParams p;
      p.k = k;
      p.rounds = kRounds;
      p.seed = 3;
      p.push_full_set = algorithm == Algorithm::kGossipFullSet;
      spec.processes = make_gossip_processes(init, p);
      break;
    }
    case Algorithm::kNetworkCoding: {
      // A coded packet is a random combination of the basis rows, and
      // receiving one reduces it against them: both on TokenSets.
      NetworkCodingParams p;
      p.k = k;
      p.rounds = kRounds;
      p.seed = 3;
      spec.processes = make_network_coding_processes(init, p);
      break;
    }
  }
  return spec;
}

void expect_no_allocation_per_packet(const StepCount& c) {
  // Zero per packet: at most one growth of the inbox view array to a new
  // high-water mark in the whole run.
  EXPECT_LE(c.allocations, 1u) << "over " << c.packets << " packets";
  EXPECT_GT(c.packets, 1000u) << "too little traffic to show anything";
}

class ScenarioAllocations
    : public ::testing::TestWithParam<std::tuple<Scenario, std::size_t>> {};

TEST_P(ScenarioAllocations, SteadyRoundsAllocateNothingPerPacket) {
  const auto [scenario, k] = GetParam();
  expect_no_allocation_per_packet(count_step_allocations(
      materialized(scenario, config(k), 1, kRounds), kRounds));
}

// KLO flood (klo-one), the KLO pipeline (klo-interval), Algorithm 1
// (hinet-interval) and Algorithm 2 (hinet-one), with one word and with
// two.
INSTANTIATE_TEST_SUITE_P(
    SteadyStateAllocations, ScenarioAllocations,
    ::testing::Combine(::testing::Values(Scenario::kKloOne,
                                         Scenario::kKloInterval,
                                         Scenario::kHiNetInterval,
                                         Scenario::kHiNetOne),
                       ::testing::Values(std::size_t{16}, std::size_t{128})));

class BaselineAllocations
    : public ::testing::TestWithParam<std::tuple<Algorithm, std::size_t>> {};

TEST_P(BaselineAllocations, SteadyRoundsAllocateNothingPerPacket) {
  const auto [algorithm, k] = GetParam();
  expect_no_allocation_per_packet(
      count_step_allocations(baseline_spec(algorithm, k), kRounds));
}

INSTANTIATE_TEST_SUITE_P(
    SteadyStateAllocations, BaselineAllocations,
    ::testing::Combine(::testing::Values(Algorithm::kParsimoniousFlooding,
                                         Algorithm::kGossip,
                                         Algorithm::kGossipFullSet,
                                         Algorithm::kNetworkCoding),
                       ::testing::Values(std::size_t{16}, std::size_t{128})));

// Above 128 tokens the words live on the heap: a packet costs an
// allocation again, and the run must still be right.
TEST(SteadyStateAllocations, HeapBackedSetsStillDisseminate) {
  ScenarioConfig cfg = config(256);
  cfg.nodes = 300;
  ScenarioSchedule sched;
  (void)scenario_generator(Scenario::kKloOne, cfg, 1, &sched);
  const StepCount c = count_step_allocations(
      materialized(Scenario::kKloOne, cfg, 1, sched.rounds()), sched.rounds());
  EXPECT_TRUE(c.metrics.all_delivered);
  EXPECT_EQ(c.metrics.token_universe, 256u);
  for (std::size_t known : c.metrics.per_node_tokens_known) {
    EXPECT_EQ(known, 256u);
  }
}

}  // namespace
}  // namespace hinet
