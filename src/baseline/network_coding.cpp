#include "baseline/network_coding.hpp"

namespace hinet {

Gf2Basis::Gf2Basis(std::size_t k) : k_(k) {
  rows_.reserve(k);
  pivot_.reserve(k);
}

std::size_t Gf2Basis::reduce(TokenSet& vec) const {
  HINET_REQUIRE(vec.universe() == k_, "vector width mismatch");
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (vec.contains(pivot_[i])) vec.toggle(rows_[i]);
  }
  // Leading (lowest-index) set bit, or k_ when zero.
  const auto lead = vec.min_element();
  return lead ? *lead : k_;
}

bool Gf2Basis::insert(TokenSet vec) {
  const std::size_t lead = reduce(vec);
  if (lead >= k_) return false;  // dependent (or zero)
  // Back-substitute: clear this pivot bit from existing rows so the basis
  // stays in reduced form and reduce() needs a single pass.
  const auto pivot = static_cast<TokenId>(lead);
  for (TokenSet& row : rows_) {
    if (row.contains(pivot)) row.toggle(vec);
  }
  rows_.push_back(std::move(vec));
  pivot_.push_back(pivot);
  return true;
}

bool Gf2Basis::contains(TokenSet vec) const { return reduce(vec) >= k_; }

bool Gf2Basis::decodable(TokenId t) const {
  return contains(TokenSet(k_, {t}));
}

TokenSet Gf2Basis::random_combination(Rng& rng) const {
  TokenSet vec(k_);
  if (rows_.empty()) return vec;
  bool nonzero = false;
  while (!nonzero) {
    vec.clear();
    for (const TokenSet& row : rows_) {
      if (rng.bernoulli(0.5)) {
        nonzero = true;  // at least one row included => nonzero (basis rows
                         // are independent, so any nonempty XOR is nonzero)
        vec.toggle(row);
      }
    }
  }
  return vec;
}

NetworkCodingProcess::NetworkCodingProcess(NodeId self, TokenSet initial,
                                           const NetworkCodingParams& params)
    : self_(self),
      params_(params),
      basis_(params.k),
      decoded_(params.k),
      rng_(params.seed ^ (0x9e3779b97f4a7c15ULL * (self + 1))) {
  HINET_REQUIRE(params_.k == initial.universe(), "universe mismatch");
  HINET_REQUIRE(params_.rounds >= 1, "M must be >= 1");
  for (TokenId t : initial.to_vector()) {
    basis_.insert(TokenSet(params_.k, {t}));
  }
  refresh_decoded();
}

bool NetworkCodingProcess::finished(const RoundContext& ctx) const {
  return ctx.round >= params_.rounds;
}

void NetworkCodingProcess::refresh_decoded() {
  if (basis_.full_rank()) {
    for (TokenId t = 0; t < params_.k; ++t) decoded_.insert(t);
    return;
  }
  for (TokenId t = 0; t < params_.k; ++t) {
    if (!decoded_.contains(t) && basis_.decodable(t)) decoded_.insert(t);
  }
}

std::optional<Packet> NetworkCodingProcess::transmit(const RoundContext&) {
  if (basis_.rank() == 0) return std::nullopt;
  Packet pkt;
  pkt.src = self_;
  pkt.dest = kBroadcastDest;
  pkt.tokens = basis_.random_combination(rng_);
  pkt.wire_tokens = 1;  // one coded payload + k-bit header
  return pkt;
}

void NetworkCodingProcess::receive(const RoundContext&, InboxView inbox) {
  bool grew = false;
  for (PacketView pkt : inbox) grew |= basis_.insert(pkt->tokens);
  if (grew) refresh_decoded();
}

std::vector<ProcessPtr> make_network_coding_processes(
    const std::vector<TokenSet>& initial, const NetworkCodingParams& params) {
  return make_processes<NetworkCodingProcess>(initial, params);
}

}  // namespace hinet
