#include "sim/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace hinet {

Engine::Engine(SimulationSpec spec)
    : owned_network_(std::move(spec.network)),
      owned_hierarchy_(std::move(spec.hierarchy)),
      owned_channel_(std::move(spec.channel)),
      owned_config_(spec.engine),
      owning_(true),
      net_(owned_network_.get()),
      hierarchy_(owned_hierarchy_.get()),
      flat_view_(owned_network_ != nullptr ? owned_network_->node_count() : 0),
      processes_(std::move(spec.processes)),
      channel_(owned_channel_.get()) {
  HINET_REQUIRE(net_ != nullptr, "SimulationSpec must own a network");
  validate();
}

Engine::Engine(DynamicNetwork& net, HierarchyProvider* hierarchy,
               std::vector<ProcessPtr> processes)
    : net_(&net),
      hierarchy_(hierarchy),
      flat_view_(net.node_count()),
      processes_(std::move(processes)) {
  validate();
}

void Engine::validate() const {
  HINET_REQUIRE(processes_.size() == net_->node_count(),
                "one process per node required");
  if (hierarchy_ != nullptr) {
    HINET_REQUIRE(hierarchy_->node_count() == net_->node_count(),
                  "hierarchy and topology node counts differ");
  }
  for (const auto& p : processes_) {
    HINET_REQUIRE(p != nullptr, "null process");
    HINET_REQUIRE(p->knowledge().universe() ==
                      processes_.front()->knowledge().universe(),
                  "all processes must share the token universe");
  }
}

SimMetrics Engine::run() {
  HINET_REQUIRE(owning_,
                "Engine::run() without a config requires a spec-owning "
                "engine; borrowing engines must pass an EngineConfig");
  return run(owned_config_);
}

SimMetrics Engine::run(const EngineConfig& cfg) {
  start(cfg);
  while (step()) {
  }
  return finish();
}

void Engine::start(const EngineConfig& cfg) {
  HINET_REQUIRE(!started_, "Engine::run is single-shot: this engine already "
                           "started a run (processes hold consumed state)");
  started_ = true;
  cfg_ = cfg;
  round_ = 0;
  const std::size_t n = net_->node_count();

  metrics_ = SimMetrics{};
  metrics_.per_node_tx_tokens.assign(n, 0);
  metrics_.per_node_rx_tokens.assign(n, 0);
  // Pre-size the per-round series (capped, so a huge max_rounds with an
  // early stop_when_complete exit cannot over-commit memory).
  const std::size_t cap = std::min<std::size_t>(cfg_.max_rounds, 1u << 20);
  metrics_.tokens_sent_per_round.reserve(cap);
  metrics_.complete_nodes_per_round.reserve(cap);

  // At most one packet per node per round, so the packet buffer never
  // grows inside step().
  packets_.reserve(n);

  // Incremental completion: knowledge is monotone and grows only in
  // receive() (see Process), so scan once up front and afterwards re-check
  // only not-yet-complete nodes right after their receive() call.
  complete_.assign(n, 0);
  complete_nodes_ = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (processes_[v]->knowledge().full()) {
      complete_[v] = 1;
      ++complete_nodes_;
    }
  }

  // Budgets too large to represent as a clock offset (a caller passing
  // ~2^63 ms) cannot ever fire; treat them as "no deadline" instead of
  // overflowing the duration arithmetic.
  constexpr std::uint64_t kMaxDeadlineMs = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          // detlint-allow(banned-time): compile-time clock range, not a read
          std::chrono::steady_clock::duration::max())
          .count() /
      2);
  has_deadline_ = cfg_.deadline_ms > 0 && cfg_.deadline_ms <= kMaxDeadlineMs;
  if (has_deadline_) {
    // An over-budget run throws DeadlineError instead of degrading, so
    // metrics never depend on the host clock.
    // detlint-allow(banned-time): deadline only gates abort, never results
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(cfg_.deadline_ms);
  }
}

// detlint: hot-path-begin — the round body must not allocate in steady
// state; scratch buffers are reused via clear()/assign(), and the only
// growth is the documented high-water resize of the inbox view array.
bool Engine::step() {
  HINET_REQUIRE(started_ && !finished_,
                "Engine::step() requires an active run: call start() first, "
                "and not after finish()");
  // Schedule exhausted, or (with stop_when_complete) the completion round
  // already ran.
  if (round_ >= cfg_.max_rounds ||
      (cfg_.stop_when_complete && metrics_.rounds_to_completion != kNever)) {
    return false;
  }
  if (has_deadline_) {
    // detlint-allow(banned-time): supervision deadline (armed in start())
    if (std::chrono::steady_clock::now() >= deadline_) {
      std::ostringstream os;
      os << "engine deadline of " << cfg_.deadline_ms << " ms exceeded after "
         << metrics_.rounds_executed << " round(s); raise "
         << "EngineConfig::deadline_ms to let the run finish";
      throw DeadlineError(os.str());
    }
  }

  const std::size_t n = net_->node_count();
  const Round r = round_;
  const Graph& g = net_->graph_at(r);
  const HierarchyView& h =
      hierarchy_ != nullptr ? hierarchy_->hierarchy_at(r) : flat_view_;
  HINET_REQUIRE(g.node_count() == n, "round graph node count changed");

  // Send step: node-id order for determinism.
  packets_.clear();
  std::size_t round_tokens = 0;
  for (NodeId v = 0; v < n; ++v) {
    RoundContext ctx{r, v, &g, &h};
    if (processes_[v]->finished(ctx)) continue;
    if (auto pkt = processes_[v]->transmit(ctx)) {
      HINET_REQUIRE(pkt->src == v, "packet src must be the sender");
      const std::size_t cost = pkt->cost();
      round_tokens += cost;
      metrics_.per_node_tx_tokens[v] += cost;
      packets_.push_back(std::move(*pkt));
    }
  }
  metrics_.packets_sent += packets_.size();
  metrics_.tokens_sent += round_tokens;
  metrics_.tokens_sent_per_round.push_back(round_tokens);

  if (channel_ != nullptr) channel_->begin_round(r, g, packets_);

  // Delivery: sender-centric scatter.  One pass over the packet list
  // counts each CSR neighbour's candidates, a prefix sum carves the flat
  // view array into per-receiver segments, and a second stable pass
  // places the views — packets are in sender order, so every segment
  // stays sorted by sender id.
  inbox_offsets_.assign(n + 1, 0u);
  for (const Packet& pkt : packets_) {
    for (NodeId u : g.neighbors(pkt.src)) ++inbox_offsets_[u + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    inbox_offsets_[v + 1] += inbox_offsets_[v];
  }
  // A round delivers at most one view per arc of G_r, so the array is
  // sized by the graph, not by the traffic: it grows only when a round's
  // topology outgrows every earlier one's, then capacity is reused.
  // detlint-allow(hot-path-alloc): grows to the high-water arc count
  inbox_views_.resize(2 * g.edge_count());
  inbox_cursor_.assign(n, 0u);
  std::copy(inbox_offsets_.begin(), inbox_offsets_.end() - 1,
            inbox_cursor_.begin());
  for (const Packet& pkt : packets_) {
    for (NodeId u : g.neighbors(pkt.src)) {
      inbox_views_[inbox_cursor_[u]++] = &pkt;
    }
  }

  // Receive step: receiver-major, so stateful channels see deliver()
  // calls in exactly the order the receiver-centric engine made them
  // (receivers ascending, packets in sender order per receiver).
  // Surviving views are compacted in place within each segment.
  for (NodeId v = 0; v < n; ++v) {
    PacketView* seg = inbox_views_.data() + inbox_offsets_[v];
    std::uint32_t len = inbox_offsets_[v + 1] - inbox_offsets_[v];
    if (channel_ != nullptr) {
      std::uint32_t kept = 0;
      for (std::uint32_t i = 0; i < len; ++i) {
        PacketView pkt = seg[i];
        if (channel_->deliver(r, *pkt, v)) seg[kept++] = pkt;
      }
      len = kept;
    }
    for (std::uint32_t i = 0; i < len; ++i) {
      metrics_.per_node_rx_tokens[v] += seg[i]->cost();
    }
    RoundContext ctx{r, v, &g, &h};
    processes_[v]->receive(ctx, InboxView(seg, len));
    if (complete_[v] == 0 && processes_[v]->knowledge().full()) {
      complete_[v] = 1;
      ++complete_nodes_;
    }
  }

  if (observer_) observer_(r, packets_, g, h);

  ++round_;
  ++metrics_.rounds_executed;
  metrics_.complete_nodes_per_round.push_back(complete_nodes_);
  if (complete_nodes_ == n && metrics_.rounds_to_completion == kNever) {
    metrics_.rounds_to_completion = metrics_.rounds_executed;
    if (cfg_.stop_when_complete) return false;
  }
  return round_ < cfg_.max_rounds;
}
// detlint: hot-path-end

SimMetrics Engine::finish() {
  HINET_REQUIRE(started_ && !finished_,
                "Engine::finish() requires an active run");
  finished_ = true;
  const std::size_t n = net_->node_count();
  metrics_.all_delivered = complete_nodes_ == n;
  if (metrics_.all_delivered && metrics_.rounds_to_completion == kNever) {
    metrics_.rounds_to_completion = metrics_.rounds_executed;
  }
  metrics_.complete_nodes_final = complete_nodes_;
  metrics_.per_node_tokens_known.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    metrics_.per_node_tokens_known[v] = processes_[v]->knowledge().count();
  }
  metrics_.token_universe =
      n > 0 ? processes_.front()->knowledge().universe() : 0;
  return std::move(metrics_);
}

}  // namespace hinet
