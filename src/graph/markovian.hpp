// Edge-Markovian Dynamic Graph (EMDG) generator, after Clementi et al.
// (PODC 2008): every potential edge evolves as an independent two-state
// Markov chain.  A missing edge is *born* with probability p per round and
// an existing edge *dies* with probability q per round.
//
// The paper names EMDG as one of the flat dynamics models its hierarchy
// should eventually extend (Section VI future work); we provide it as a
// workload for the flooding/gossip baselines and for stress testing.
#pragma once

#include "graph/dynamic.hpp"
#include "util/rng.hpp"

namespace hinet {

struct MarkovianConfig {
  std::size_t nodes = 0;
  double birth = 0.05;   ///< P(absent -> present) per round.
  double death = 0.2;    ///< P(present -> absent) per round.
  double initial = 0.1;  ///< edge density of round 0.
  std::size_t rounds = 0;
  std::uint64_t seed = 1;
};

/// Streaming EMDG provider: synthesises each round from the chain state
/// (the previous round's graph + the RNG stream) with only the ring
/// window resident.  Byte-identical, round by round, to the materialized
/// trace from make_edge_markovian_trace with the same config.
class EdgeMarkovianNetwork final : public StreamingNetwork {
 public:
  explicit EdgeMarkovianNetwork(const MarkovianConfig& cfg);

 private:
  Graph synthesize_next() override;
  void reset_generator() override;

  MarkovianConfig cfg_;
  Rng rng_;
  Graph prev_;  ///< chain state: the last synthesized round
};

/// Pre-generates an EMDG trace of cfg.rounds rounds (the materialized
/// special case — O(Γ·n) resident; prefer EdgeMarkovianNetwork at scale).
GraphSequence make_edge_markovian_trace(const MarkovianConfig& cfg);

/// Expected stationary edge density p / (p + q) of the chain; exposed so
/// experiments can pick (p, q) pairs with a known asymptotic density.
double edge_markovian_stationary_density(double birth, double death);

}  // namespace hinet
