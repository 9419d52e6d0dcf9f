// Mobility-driven dynamic networks: nodes move in the unit square and the
// communication graph of each round is the random geometric graph induced
// by a transmission radius.  This is the "node mobility" source of
// dynamics the paper's introduction motivates (MANETs / WSNs).
//
// Two classic models:
//   - RandomWaypoint: pick a destination uniformly, travel towards it at a
//     per-node speed, pause, repeat.
//   - RandomWalk: each round take a step of fixed length in a uniformly
//     random direction, reflecting off the boundary.
#pragma once

#include <memory>
#include <vector>

#include "graph/dynamic.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace hinet {

enum class MobilityModel {
  kRandomWaypoint,
  kRandomWalk,
  /// Manhattan-grid mobility (after Clementi et al., "Flooding over
  /// Manhattan"): nodes move only along the streets of a regular grid,
  /// travelling between adjacent intersections and picking a random
  /// adjacent intersection at each arrival.
  kManhattan,
};

struct MobilityConfig {
  std::size_t nodes = 0;
  MobilityModel model = MobilityModel::kRandomWaypoint;
  double radius = 0.25;      ///< communication radius in the unit square.
  double min_speed = 0.005;  ///< per-round travel distance lower bound.
  double max_speed = 0.02;   ///< per-round travel distance upper bound.
  std::size_t pause_rounds = 0;  ///< waypoint pause length.
  std::size_t streets = 5;   ///< Manhattan: streets per axis (>= 2).
  std::size_t rounds = 0;
  std::uint64_t seed = 1;
};

namespace detail {
class MobilityStepper;
}  // namespace detail

/// Streaming mobility provider: advances node positions one round at a
/// time and induces each round's geometric graph on demand, so only the
/// ring window (and one position vector) is ever resident.  Byte-identical
/// to MobilityTrace::network() for the same config.
class MobilityNetwork final : public StreamingNetwork {
 public:
  explicit MobilityNetwork(const MobilityConfig& cfg);
  ~MobilityNetwork() override;

  /// Node positions of the most recently synthesized round (the mobility
  /// state the next round evolves from).
  const std::vector<gen::Point2D>& current_positions() const;

 private:
  Graph synthesize_next() override;
  void reset_generator() override;

  MobilityConfig cfg_;
  std::unique_ptr<detail::MobilityStepper> stepper_;
};

/// A mobility trace: positions per round plus the induced graphs (the
/// materialized special case — all rounds resident; prefer MobilityNetwork
/// at scale, which shares the same position stepper).
class MobilityTrace {
 public:
  explicit MobilityTrace(const MobilityConfig& cfg);

  const GraphSequence& network() const { return network_; }
  GraphSequence& network() { return network_; }

  /// Node positions in round r (r clamped to the final round).
  const std::vector<gen::Point2D>& positions_at(Round r) const;

  std::size_t round_count() const { return positions_.size(); }

 private:
  std::vector<std::vector<gen::Point2D>> positions_;
  GraphSequence network_;
};

}  // namespace hinet
