#include "sim/channel.hpp"

namespace hinet {

void ChannelModel::begin_round(Round, const Graph&, std::span<const Packet>) {
}

LossyChannel::LossyChannel(double loss, std::uint64_t seed)
    : loss_(loss), rng_(seed) {
  HINET_REQUIRE(loss >= 0.0 && loss <= 1.0, "loss outside [0,1]");
}

// detlint: hot-path-begin — deliver() runs once per (packet, receiver) pair
// every round.
bool LossyChannel::deliver(Round, const Packet&, NodeId) {
  return !rng_.bernoulli(loss_);
}
// detlint: hot-path-end

CollisionChannel::CollisionChannel(std::size_t capture) : capture_(capture) {
  HINET_REQUIRE(capture >= 1, "capture threshold must be >= 1");
}

// detlint: hot-path-begin — the CSR sweep touches every adjacency each round;
// assign() reuses capacity, so steady-state rounds stay off the heap.
void CollisionChannel::begin_round(Round, const Graph& g,
                                   std::span<const Packet> packets) {
  // Mark the round's transmitters, then count each receiver's transmitting
  // neighbours with one contiguous CSR sweep per node.  Both buffers are
  // reused across rounds (assign() preserves capacity).
  const std::size_t n = g.node_count();
  transmitting_.assign(n, 0);
  transmitting_neighbors_.assign(n, 0);
  for (const Packet& pkt : packets) transmitting_[pkt.src] = 1;
  for (NodeId v = 0; v < n; ++v) {
    std::size_t busy = 0;
    for (NodeId u : g.neighbors(v)) {
      busy += static_cast<std::size_t>(transmitting_[u]);
    }
    transmitting_neighbors_[v] = busy;
  }
}

bool CollisionChannel::deliver(Round, const Packet&, NodeId receiver) {
  return transmitting_neighbors_[receiver] <= capture_;
}
// detlint: hot-path-end

namespace {
bool is_probability(double p) { return p >= 0.0 && p <= 1.0; }
}  // namespace

GilbertElliottChannel::GilbertElliottChannel(
    const GilbertElliottParams& params, std::uint64_t seed)
    : params_(params),
      state_rng_(seed),
      loss_rng_(SplitMix64(seed ^ 0x9e3779b97f4a7c15ULL).next()) {
  HINET_REQUIRE(is_probability(params.p_good_to_bad),
                "p_good_to_bad outside [0,1]");
  HINET_REQUIRE(is_probability(params.p_bad_to_good),
                "p_bad_to_good outside [0,1]");
  HINET_REQUIRE(is_probability(params.loss_good), "loss_good outside [0,1]");
  HINET_REQUIRE(is_probability(params.loss_bad), "loss_bad outside [0,1]");
}

// detlint: hot-path-begin — n state-chain draws per round plus one bernoulli
// per delivery; the bad_ buffer allocates once and is reused thereafter.
void GilbertElliottChannel::begin_round(Round, const Graph& g,
                                        std::span<const Packet>) {
  const std::size_t n = g.node_count();
  if (bad_.size() != n) bad_.assign(n, 0);  // chains start Good
  // Advance every chain exactly once, in node order: n draws per round, so
  // the state sequence depends only on (seed, round), never on traffic.
  for (NodeId v = 0; v < n; ++v) {
    if (bad_[v]) {
      if (state_rng_.bernoulli(params_.p_bad_to_good)) bad_[v] = 0;
    } else {
      if (state_rng_.bernoulli(params_.p_good_to_bad)) bad_[v] = 1;
    }
  }
}

bool GilbertElliottChannel::deliver(Round, const Packet&, NodeId receiver) {
  const double loss =
      bad_[receiver] != 0 ? params_.loss_bad : params_.loss_good;
  return !loss_rng_.bernoulli(loss);
}
// detlint: hot-path-end

bool GilbertElliottChannel::in_bad_state(NodeId v) const {
  return v < bad_.size() && bad_[v] != 0;
}

}  // namespace hinet
