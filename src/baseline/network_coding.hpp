// Random linear network coding over GF(2) — Haeupler & Karger's approach
// to faster k-token dissemination in dynamic networks (PODC 2011), the
// strongest related-work baseline the paper cites.
//
// Each token t is the unit vector e_t of GF(2)^k.  A node's knowledge is a
// subspace, maintained as a row-reduced basis; each round an informed node
// broadcasts one uniformly random vector of its subspace (a random GF(2)
// combination of its basis rows).  A token is *decodable* when its unit
// vector lies in the subspace; dissemination completes when every node's
// subspace has full rank k.
//
// Cost accounting: a coded packet carries one token-sized payload plus a
// k-bit coefficient header; we count it as one token (the header is
// k/(64·token size) of a token and the paper's model counts tokens), so
// RLNC's measured communication is directly comparable with the
// token-forwarding baselines.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/process.hpp"
#include "util/rng.hpp"

namespace hinet {

/// Incremental GF(2) row basis with rank queries and membership tests.
/// A vector of GF(2)^k is a TokenSet over universe k (token t is the
/// coefficient of e_t), so packets' sets go in and out unconverted.
class Gf2Basis {
 public:
  /// Basis over GF(2)^k, with room reserved for all k rows.
  explicit Gf2Basis(std::size_t k);

  std::size_t dimension() const { return k_; }
  std::size_t rank() const { return rows_.size(); }
  bool full_rank() const { return rank() == k_; }

  /// Inserts a vector; returns true when it increased the rank.
  bool insert(TokenSet vec);

  /// True when `vec` lies in the span.
  bool contains(TokenSet vec) const;

  /// True when unit vector e_t lies in the span (token t decodable).
  bool decodable(TokenId t) const;

  /// A uniformly random non-zero vector of the span (zero vector when the
  /// basis is empty).
  TokenSet random_combination(Rng& rng) const;

 private:
  /// Reduces vec by the current pivots; returns the leading bit index or
  /// k_ when reduced to zero.
  std::size_t reduce(TokenSet& vec) const;

  std::size_t k_;
  std::vector<TokenSet> rows_;   ///< pivot rows
  std::vector<TokenId> pivot_;   ///< pivot bit per row
};

struct NetworkCodingParams {
  std::size_t k = 0;
  std::size_t rounds = 0;
  std::uint64_t seed = 1;  ///< base seed; per-node stream derived
};

class NetworkCodingProcess final : public Process {
 public:
  NetworkCodingProcess(NodeId self, TokenSet initial,
                       const NetworkCodingParams& params);

  std::optional<Packet> transmit(const RoundContext& ctx) override;
  void receive(const RoundContext& ctx, InboxView inbox) override;
  /// Decodable tokens (full TA once the basis reaches full rank).
  const TokenSet& knowledge() const override { return decoded_; }
  bool finished(const RoundContext& ctx) const override;

  std::size_t rank() const { return basis_.rank(); }

 private:
  void refresh_decoded();

  NodeId self_;
  NetworkCodingParams params_;
  Gf2Basis basis_;
  TokenSet decoded_;
  Rng rng_;
};

std::vector<ProcessPtr> make_network_coding_processes(
    const std::vector<TokenSet>& initial, const NetworkCodingParams& params);

}  // namespace hinet
