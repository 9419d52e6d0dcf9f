// Adversarial T-interval connected dynamic-network generator.
//
// Kuhn, Lynch & Oshman's model guarantees only that every window of T
// consecutive rounds shares a stable connected spanning subgraph; all other
// edges may appear and disappear arbitrarily.  This generator realises
// exactly that guarantee:
//   - time is cut into windows of T rounds;
//   - each window pins a fresh random spanning tree (the stable subgraph);
//   - every round additionally receives `churn_edges` uniformly random
//     edges that exist for that round only.
// With T=1 the stable tree changes every round, i.e. the 1-interval
// connected worst case the baselines are analysed under.
#pragma once

#include "graph/dynamic.hpp"
#include "util/rng.hpp"

namespace hinet {

struct AdversaryConfig {
  std::size_t nodes = 0;
  std::size_t interval = 1;      ///< T: rounds per stable window.
  std::size_t rounds = 0;        ///< nominal trace length (the horizon).
  std::size_t churn_edges = 0;   ///< per-round ephemeral random edges.
  std::uint64_t seed = 1;
};

/// Streaming T-interval-connected provider: keeps only the two backbones
/// spanning the current aligned window (plus the ring window of realized
/// rounds) resident, generating the next backbone lazily at each window
/// boundary.  Byte-identical to the materialized make_t_interval_trace /
/// make_t_interval_path_trace output — the backbone and churn RNG streams
/// are independent forks, so lazy interleaving preserves the draw order.
class TIntervalNetwork final : public StreamingNetwork {
 public:
  TIntervalNetwork(const AdversaryConfig& cfg, bool path_backbone);

 private:
  Graph synthesize_next() override;
  void reset_generator() override;

  AdversaryConfig cfg_;
  bool path_backbone_;
  Rng backbone_rng_;
  Rng churn_rng_;
  std::size_t cur_window_ = 0;
  Graph backbone_cur_;   ///< backbone of aligned window cur_window_
  Graph backbone_next_;  ///< backbone of aligned window cur_window_ + 1
};

/// Generates a full trace satisfying T-interval connectivity by
/// construction (the materialized special case; prefer TIntervalNetwork
/// at scale).  The returned sequence has exactly cfg.rounds rounds.
GraphSequence make_t_interval_trace(const AdversaryConfig& cfg);

/// Worst-case variant for lower-bound experiments: the stable subgraph of
/// every window is a freshly relabelled *path* (diameter n-1), which makes
/// pipelined dissemination as slow as the model allows.
GraphSequence make_t_interval_path_trace(const AdversaryConfig& cfg);

}  // namespace hinet
