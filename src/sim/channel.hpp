// Channel models: failure injection for the wireless medium.
//
// The paper's model assumes perfect local broadcast; real MANET/WSN
// deployments (its motivating platforms) drop packets.  A ChannelModel
// decides per (packet, receiver) whether delivery succeeds, letting the
// robustness benches measure how the correctness guarantees degrade when
// the model's assumptions are violated.
//
//   (no channel)          — the paper's model: Engine::set_channel(nullptr),
//                           the default, delivers everything on the engine's
//                           zero-overhead path.
//   LossyChannel          — i.i.d. Bernoulli loss per (packet, receiver).
//   CollisionChannel      — a receiver whose transmitting-neighbour count
//                           exceeds a capture threshold hears nothing that
//                           round (slotted-ALOHA-style interference).
//   GilbertElliottChannel — two-state burst-loss Markov channel: each
//                           receiver is Good or Bad, transitions once per
//                           round, and loses packets with a state-dependent
//                           probability.  Models correlated outages (deep
//                           fades, interference bursts) that i.i.d. loss
//                           cannot — the mean burst length is
//                           1 / p_bad_to_good rounds.
//
// All models are deterministic per seed.
#pragma once

#include <span>
#include <vector>

#include "graph/dynamic.hpp"
#include "sim/packet.hpp"
#include "util/rng.hpp"

namespace hinet {

class ChannelModel {
 public:
  virtual ~ChannelModel() = default;

  /// Called once at the start of each round with that round's graph and
  /// the full transmission list (for interference models).
  virtual void begin_round(Round r, const Graph& g,
                           std::span<const Packet> packets);

  /// True when `receiver` successfully hears `pkt` this round.  Called
  /// only for (packet, receiver) pairs that are graph neighbours, in
  /// receiver-major order (receivers ascending; per receiver, packets in
  /// sender order) — stateful channels (LossyChannel's RNG stream) depend
  /// on that order for per-seed determinism.
  virtual bool deliver(Round r, const Packet& pkt, NodeId receiver) = 0;
};

/// Independent per-(packet, receiver) loss with probability `loss`.
class LossyChannel final : public ChannelModel {
 public:
  LossyChannel(double loss, std::uint64_t seed);

  bool deliver(Round r, const Packet& pkt, NodeId receiver) override;

  double loss() const { return loss_; }

 private:
  double loss_;
  Rng rng_;
};

/// Capture-threshold interference: if more than `capture` of a receiver's
/// neighbours transmit in the same round, the receiver hears nothing.
class CollisionChannel final : public ChannelModel {
 public:
  explicit CollisionChannel(std::size_t capture);

  void begin_round(Round r, const Graph& g,
                   std::span<const Packet> packets) override;
  bool deliver(Round r, const Packet& pkt, NodeId receiver) override;

 private:
  std::size_t capture_;
  // Scratch reused across rounds (assign() keeps capacity): who transmits
  // this round, and per receiver how many of its CSR neighbours do.
  std::vector<char> transmitting_;
  std::vector<std::size_t> transmitting_neighbors_;
};

/// Gilbert–Elliott two-state Markov chain parameters.  Defaults give long
/// good spells (mean 20 rounds) with total loss inside 4-round bursts.
struct GilbertElliottParams {
  double p_good_to_bad = 0.05;  ///< per-round Good -> Bad transition
  double p_bad_to_good = 0.25;  ///< per-round Bad -> Good (mean burst 4)
  double loss_good = 0.0;       ///< per-(packet, receiver) loss when Good
  double loss_bad = 1.0;        ///< per-(packet, receiver) loss when Bad
};

/// Per-receiver burst loss: every node runs its own Good/Bad chain,
/// advanced once per round in node-id order (begin_round), so the state
/// stream is a fixed function of the seed regardless of traffic.  Loss
/// draws come from a separate stream in deliver() call order, matching the
/// LossyChannel determinism contract.
class GilbertElliottChannel final : public ChannelModel {
 public:
  GilbertElliottChannel(const GilbertElliottParams& params,
                        std::uint64_t seed);

  void begin_round(Round r, const Graph& g,
                   std::span<const Packet> packets) override;
  bool deliver(Round r, const Packet& pkt, NodeId receiver) override;

  const GilbertElliottParams& params() const { return params_; }

  /// True when `v`'s chain is currently in the Bad state (introspection
  /// for tests).
  bool in_bad_state(NodeId v) const;

 private:
  GilbertElliottParams params_;
  Rng state_rng_;  ///< drives the per-node chains (n draws per round)
  Rng loss_rng_;   ///< drives per-delivery loss (draw order = deliver order)
  std::vector<char> bad_;  ///< per-node state; all-Good before round 0
};

}  // namespace hinet
