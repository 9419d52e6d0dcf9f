#include "core/alg1.hpp"

namespace hinet {

Alg1Process::Alg1Process(NodeId self, TokenSet initial,
                         const Alg1Params& params)
    : self_(self),
      params_(params),
      ta_(std::move(initial)),
      ts_(ta_.universe()),
      tr_(ta_.universe()) {
  HINET_REQUIRE(params_.k == ta_.universe(), "universe mismatch");
  HINET_REQUIRE(params_.phase_length >= 1, "T must be >= 1");
  HINET_REQUIRE(params_.phases >= 1, "M must be >= 1");
}

bool Alg1Process::finished(const RoundContext& ctx) const {
  return ctx.round >= params_.phases * params_.phase_length;
}

void Alg1Process::maybe_start_phase(const RoundContext& ctx) {
  if (ctx.round < next_phase_start_) return;
  // Entering a new phase (including the first).  The pseudocode clears a
  // head/gateway's TS at phase end and a member's TS/TR at phase start
  // when its head changed; doing all resets lazily at the first activity
  // of the new phase is equivalent because the sets are not read between.
  const bool first_phase = next_phase_start_ == 0;
  next_phase_start_ =
      (ctx.round / params_.phase_length + 1) * params_.phase_length;

  resend_sweeps_ = 0;
  switch (ctx.role()) {
    case NodeRole::kHead:
    case NodeRole::kGateway:
      ts_.clear();
      break;
    case NodeRole::kMember: {
      const ClusterId now = ctx.cluster();
      if (first_phase || now != head_in_prev_phase_) {
        ts_.clear();
        tr_.clear();
      }
      break;
    }
  }
  head_in_prev_phase_ = ctx.cluster();
}

std::optional<Packet> Alg1Process::transmit(const RoundContext& ctx) {
  maybe_start_phase(ctx);

  switch (ctx.role()) {
    case NodeRole::kHead:
    case NodeRole::kGateway: {
      auto t = ta_.min_diff(ts_);
      if (!t) {
        // TS == TA: the single sweep of Fig. 4 is done.  With a
        // retransmit budget left, restart the sweep — under loss a
        // broadcast token may never have been heard.
        if (resend_sweeps_ >= params_.retransmit_budget || ta_.empty()) {
          return std::nullopt;
        }
        ++resend_sweeps_;
        ts_.clear();
        t = ta_.min_diff(ts_);
      }
      ts_.insert(*t);
      Packet pkt;
      pkt.src = self_;
      pkt.dest = kBroadcastDest;
      pkt.tokens = TokenSet(params_.k, {*t});
      return pkt;
    }
    case NodeRole::kMember: {
      if (params_.stable_head_optimisation &&
          ctx.round >= params_.phase_length) {
        return std::nullopt;  // Remark 1: upload only in the first phase
      }
      const ClusterId head = ctx.cluster();
      if (head == kNoCluster) return std::nullopt;
      auto t = ta_.max_diff(ts_, tr_);
      if (!t) {
        // TA == TS ∪ TR: upload sweep done.  A resend sweep forgets TS —
        // sends may have been lost — but keeps TR: the head's own
        // broadcasts double as acknowledgements, so the sweep re-uploads
        // only TA \ TR.
        if (resend_sweeps_ >= params_.retransmit_budget) return std::nullopt;
        ++resend_sweeps_;
        ts_.clear();
        t = ta_.max_diff(ts_, tr_);
        if (!t) return std::nullopt;  // everything acknowledged already
      }
      ts_.insert(*t);
      Packet pkt;
      pkt.src = self_;
      pkt.dest = head;
      pkt.tokens = TokenSet(params_.k, {*t});
      return pkt;
    }
  }
  return std::nullopt;
}

void Alg1Process::receive(const RoundContext& ctx, InboxView inbox) {
  maybe_start_phase(ctx);  // receive may run before transmit on a finished
                           // node's phase boundary; keep state consistent
  switch (ctx.role()) {
    case NodeRole::kHead:
    case NodeRole::kGateway:
      for (PacketView pkt : inbox) ta_.unite(pkt->tokens);
      break;
    case NodeRole::kMember: {
      const ClusterId head = ctx.cluster();
      for (PacketView pkt : inbox) {
        if (pkt->src == head) {
          ta_.unite(pkt->tokens);
          tr_.unite(pkt->tokens);
        }
      }
      break;
    }
  }
}

std::vector<ProcessPtr> make_alg1_processes(
    const std::vector<TokenSet>& initial, const Alg1Params& params) {
  return make_processes<Alg1Process>(initial, params);
}

std::size_t alg1_scheduled_rounds(const Alg1Params& params) {
  return params.phases * params.phase_length;
}

}  // namespace hinet
