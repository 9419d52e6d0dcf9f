// Metrics collected by the engine, matching the paper's two cost measures:
// time cost (rounds) and communication cost (total number of tokens sent).
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace hinet {

class ByteWriter;
class ByteReader;

inline constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

struct SimMetrics {
  std::size_t rounds_executed = 0;

  /// Total transmissions (packets).
  std::size_t packets_sent = 0;

  /// The paper's communication cost: Σ tokens over all packets sent.
  std::size_t tokens_sent = 0;

  /// First round index r such that after round r every node knows all k
  /// tokens; kNever if dissemination did not complete.  Time cost in the
  /// paper's sense is rounds_to_completion (number of rounds consumed).
  std::size_t rounds_to_completion = kNever;

  bool all_delivered = false;

  /// Per-round series, for the sweep figures.
  std::vector<std::size_t> tokens_sent_per_round;
  std::vector<std::size_t> complete_nodes_per_round;

  /// Per-node accounting, for energy models: token-equivalents transmitted
  /// and successfully received by each node.
  std::vector<std::size_t> per_node_tx_tokens;
  std::vector<std::size_t> per_node_rx_tokens;

  // Degradation metrics: under faults and loss a run that misses
  // all_delivered is not a single bit of failure — these measure how much
  // of the dissemination still happened at the cutoff.
  std::size_t token_universe = 0;        ///< k (0 before any run)
  std::size_t complete_nodes_final = 0;  ///< nodes holding all k at cutoff
  std::vector<std::size_t> per_node_tokens_known;  ///< |TA_v| at cutoff

  /// Fraction of nodes that held all k tokens when the run ended.
  double completion_fraction() const;

  /// Mean over nodes of |TA_v| / k at cutoff (1.0 iff all_delivered).
  double token_coverage() const;

  std::string to_string() const;

  /// Byte-identical comparison of every recorded metric; the determinism
  /// regression tests rely on this being exhaustive.
  friend bool operator==(const SimMetrics&, const SimMetrics&) = default;
};

/// Simple linear radio energy model (WSN-style): energy per transmitted
/// and per received token-equivalent, plus per-round idle draw.
struct EnergyModel {
  double tx_per_token = 1.0;
  double rx_per_token = 0.5;
  double idle_per_round = 0.0;
};

/// Total network energy for a run under the model.
double total_energy(const SimMetrics& m, const EnergyModel& e);

/// Energy of the single most-loaded node (the bottleneck that dies first
/// in a sensor network).
double max_node_energy(const SimMetrics& m, const EnergyModel& e);

/// Full SimMetrics, bit-exact (doubles are not stored — SimMetrics holds
/// only integral series; derived fractions are recomputed).  The one
/// metric codec: the experiment journal and the results store both embed
/// it, so its byte layout is part of both on-disk formats.
void save_metrics(ByteWriter& w, const SimMetrics& m);
SimMetrics load_metrics(ByteReader& r);

}  // namespace hinet
