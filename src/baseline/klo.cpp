#include "baseline/klo.hpp"

namespace hinet {

KloFloodProcess::KloFloodProcess(NodeId self, TokenSet initial,
                                 const KloFloodParams& params)
    : self_(self), params_(params), ta_(std::move(initial)) {
  HINET_REQUIRE(params_.k == ta_.universe(), "universe mismatch");
  HINET_REQUIRE(params_.rounds >= 1, "M must be >= 1");
}

bool KloFloodProcess::finished(const RoundContext& ctx) const {
  return ctx.round >= params_.rounds;
}

std::optional<Packet> KloFloodProcess::transmit(const RoundContext&) {
  if (ta_.empty()) return std::nullopt;
  Packet pkt;
  pkt.src = self_;
  pkt.dest = kBroadcastDest;
  pkt.tokens = ta_;
  return pkt;
}

void KloFloodProcess::receive(const RoundContext&, InboxView inbox) {
  for (PacketView pkt : inbox) ta_.unite(pkt->tokens);
}

KloPipelineProcess::KloPipelineProcess(NodeId self, TokenSet initial,
                                       const KloPipelineParams& params)
    : self_(self),
      params_(params),
      ta_(std::move(initial)),
      ts_(ta_.universe()) {
  HINET_REQUIRE(params_.k == ta_.universe(), "universe mismatch");
  HINET_REQUIRE(params_.phase_length >= 1, "T must be >= 1");
  HINET_REQUIRE(params_.phases >= 1, "M must be >= 1");
}

bool KloPipelineProcess::finished(const RoundContext& ctx) const {
  return ctx.round >= params_.phases * params_.phase_length;
}

std::optional<Packet> KloPipelineProcess::transmit(const RoundContext& ctx) {
  if (ctx.round >= next_phase_start_) {
    ts_.clear();
    next_phase_start_ =
        (ctx.round / params_.phase_length + 1) * params_.phase_length;
  }
  const auto t = ta_.min_diff(ts_);
  if (!t) return std::nullopt;
  ts_.insert(*t);
  Packet pkt;
  pkt.src = self_;
  pkt.dest = kBroadcastDest;
  pkt.tokens = TokenSet(params_.k, {*t});
  return pkt;
}

void KloPipelineProcess::receive(const RoundContext&, InboxView inbox) {
  for (PacketView pkt : inbox) ta_.unite(pkt->tokens);
}

std::vector<ProcessPtr> make_klo_flood_processes(
    const std::vector<TokenSet>& initial, const KloFloodParams& params) {
  return make_processes<KloFloodProcess>(initial, params);
}

std::vector<ProcessPtr> make_klo_pipeline_processes(
    const std::vector<TokenSet>& initial, const KloPipelineParams& params) {
  return make_processes<KloPipelineProcess>(initial, params);
}

}  // namespace hinet
