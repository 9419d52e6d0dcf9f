// Baselines from Kuhn, Lynch & Oshman (STOC 2010) — the comparison target
// of the paper's Section V.
//
// KloFloodProcess — token forwarding under 1-interval connectivity: every
// node broadcasts its entire collected set TA every round, for M rounds.
// With M = n0 - 1 this is the paper's "1-interval connected [7]" row:
// time n0 - 1, worst-case communication (n0-1) · n0 · k.
//
// KloPipelineProcess — the phase-based algorithm for T-interval connected
// networks, instantiated as the paper compares against it: M phases of T
// rounds; each round a node broadcasts the smallest token it has not yet
// broadcast in the current phase; the per-phase sent-set clears at phase
// boundaries.  Pipelining along the window's stable connected subgraph
// spreads every token to at least T - k new nodes per phase.  This is
// exactly the head/gateway side of Algorithm 1 run by *all* nodes on a
// flat network — which is how the paper derives its comparison row
// ("each node needs to broadcast in each phase").
#pragma once

#include "sim/process.hpp"

namespace hinet {

struct KloFloodParams {
  std::size_t k = 0;
  std::size_t rounds = 0;  ///< M; n0 - 1 for guaranteed delivery
};

class KloFloodProcess final : public Process {
 public:
  KloFloodProcess(NodeId self, TokenSet initial, const KloFloodParams& params);

  std::optional<Packet> transmit(const RoundContext& ctx) override;
  void receive(const RoundContext& ctx, InboxView inbox) override;
  const TokenSet& knowledge() const override { return ta_; }
  bool finished(const RoundContext& ctx) const override;

 private:
  NodeId self_;
  KloFloodParams params_;
  TokenSet ta_;
};

struct KloPipelineParams {
  std::size_t k = 0;
  std::size_t phase_length = 0;  ///< T; correctness needs T-interval conn.
  std::size_t phases = 0;        ///< M
};

class KloPipelineProcess final : public Process {
 public:
  KloPipelineProcess(NodeId self, TokenSet initial,
                     const KloPipelineParams& params);

  std::optional<Packet> transmit(const RoundContext& ctx) override;
  void receive(const RoundContext& ctx, InboxView inbox) override;
  const TokenSet& knowledge() const override { return ta_; }
  bool finished(const RoundContext& ctx) const override;

 private:
  NodeId self_;
  KloPipelineParams params_;
  TokenSet ta_, ts_;
  Round next_phase_start_ = 0;
};

std::vector<ProcessPtr> make_klo_flood_processes(
    const std::vector<TokenSet>& initial, const KloFloodParams& params);

std::vector<ProcessPtr> make_klo_pipeline_processes(
    const std::vector<TokenSet>& initial, const KloPipelineParams& params);

}  // namespace hinet
