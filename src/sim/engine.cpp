#include "sim/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace hinet {

double total_energy(const SimMetrics& m, const EnergyModel& e) {
  double energy = e.idle_per_round * static_cast<double>(m.rounds_executed) *
                  static_cast<double>(m.per_node_tx_tokens.size());
  for (std::size_t v = 0; v < m.per_node_tx_tokens.size(); ++v) {
    energy += e.tx_per_token * static_cast<double>(m.per_node_tx_tokens[v]);
    energy += e.rx_per_token * static_cast<double>(m.per_node_rx_tokens[v]);
  }
  return energy;
}

double max_node_energy(const SimMetrics& m, const EnergyModel& e) {
  double worst = 0.0;
  for (std::size_t v = 0; v < m.per_node_tx_tokens.size(); ++v) {
    const double node =
        e.idle_per_round * static_cast<double>(m.rounds_executed) +
        e.tx_per_token * static_cast<double>(m.per_node_tx_tokens[v]) +
        e.rx_per_token * static_cast<double>(m.per_node_rx_tokens[v]);
    worst = std::max(worst, node);
  }
  return worst;
}

std::size_t total_wire_bytes(const SimMetrics& m, const WireModel& w) {
  return m.packets_sent * w.header_bytes + m.tokens_sent * w.token_bytes;
}

double SimMetrics::completion_fraction() const {
  const std::size_t n = per_node_tx_tokens.size();
  if (n == 0) return 0.0;
  return static_cast<double>(complete_nodes_final) / static_cast<double>(n);
}

double SimMetrics::token_coverage() const {
  if (per_node_tokens_known.empty() || token_universe == 0) return 0.0;
  std::size_t known = 0;
  for (std::size_t c : per_node_tokens_known) known += c;
  return static_cast<double>(known) /
         static_cast<double>(per_node_tokens_known.size() * token_universe);
}

std::string SimMetrics::to_string() const {
  std::ostringstream os;
  os << "rounds=" << rounds_executed << " packets=" << packets_sent
     << " tokens_sent=" << tokens_sent << " completed="
     << (all_delivered ? std::to_string(rounds_to_completion) : "never");
  if (!all_delivered && !per_node_tx_tokens.empty()) {
    os << " completion=" << completion_fraction()
       << " coverage=" << token_coverage();
  }
  return os.str();
}

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
  HINET_REQUIRE(!partly_restored_,
                "Engine::start() after a failed restore(): the channel and "
                "some processes may hold snapshot state, so only another "
                "restore() (or a freshly built engine) can begin a run");
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

  rescan_completion();
  arm_deadline();
}

void Engine::rescan_completion() {
  // Incremental completion: knowledge is monotone and grows only in
  // receive() (see Process), so scan once up front and afterwards re-check
  // only not-yet-complete nodes right after their receive() call.
  const std::size_t n = net_->node_count();
  complete_.assign(n, 0);
  complete_nodes_ = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (processes_[v]->knowledge().full()) {
      complete_[v] = 1;
      ++complete_nodes_;
    }
  }
}

// detlint: hot-path-begin — the round body must not allocate in steady
// state; scratch buffers are reused via clear()/assign(), and the only
// growth is the documented high-water resize of the inbox view array.
bool Engine::step() {
  HINET_REQUIRE(started_ && !finished_,
                "Engine::step() requires an active run: call start() or "
                "restore() first, and not after finish()");
  // Schedule exhausted, or (with stop_when_complete) the completion round
  // already ran.
  if (round_ >= cfg_.max_rounds ||
      (cfg_.stop_when_complete && metrics_.rounds_to_completion != kNever)) {
    return false;
  }
  if (has_deadline_) {
    // detlint-allow(banned-time): supervision deadline (see arm_deadline())
    if (std::chrono::steady_clock::now() >= deadline_) {
      std::ostringstream os;
      os << "engine deadline of " << cfg_.deadline_ms << " ms exceeded after "
         << metrics_.rounds_executed << " round(s); snapshot before the "
         << "deadline or raise EngineConfig::deadline_ms to resume";
      throw DeadlineError(os.str());
    }
  }

  const std::size_t n = net_->node_count();
  const Round r = round_;
  const Graph& g = net_->graph_at(r);
  const HierarchyView& h =
      hierarchy_ != nullptr ? hierarchy_->hierarchy_at(r) : flat_view_;
  HINET_REQUIRE(g.node_count() == n, "round graph node count changed");

  // Send step: node-id order for determinism.  Each packet's cost is
  // computed once here and reused for tx and rx accounting.
  packets_.clear();
  packet_costs_.clear();
  std::size_t round_tokens = 0;
  for (NodeId v = 0; v < n; ++v) {
    RoundContext ctx{r, v, &g, &h};
    if (processes_[v]->finished(ctx)) continue;
    if (auto pkt = processes_[v]->transmit(ctx)) {
      HINET_REQUIRE(pkt->src == v, "packet src must be the sender");
      const std::size_t cost = pkt->cost();
      round_tokens += cost;
      metrics_.per_node_tx_tokens[v] += cost;
      packet_costs_.push_back(cost);
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
  // detlint-allow(hot-path-alloc): grows to the high-water inbox total
  inbox_views_.resize(inbox_offsets_[n]);  // once, then capacity is reused
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
      metrics_.per_node_rx_tokens[v] +=
          packet_costs_[static_cast<std::size_t>(seg[i] - packets_.data())];
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

SimSnapshot Engine::snapshot() const {
  HINET_REQUIRE(started_ && !finished_,
                "Engine::snapshot() is valid only between start()/restore() "
                "and finish()");
  const std::size_t n = net_->node_count();
  ByteWriter w;
  w.u64(round_);
  w.u64(n);
  w.u64(cfg_.max_rounds);
  w.u8(cfg_.stop_when_complete ? 1 : 0);
  w.u64(cfg_.deadline_ms);
  save_metrics(w, metrics_);
  w.u8(channel_ != nullptr ? 1 : 0);
  if (channel_ != nullptr) {
    ByteWriter cw;
    channel_->save_state(cw);
    w.blob(cw.buffer());
  }
  // Each process state is length-framed so restore can hand every process a
  // bounded reader and verify it consumes its section exactly — a process
  // type mismatch surfaces as a diagnostic, not as silent misalignment.
  for (const auto& p : processes_) {
    ByteWriter pw;
    p->save_state(pw);
    w.blob(pw.buffer());
  }
  return SimSnapshot{.payload = w.take()};
}

void Engine::restore(const SimSnapshot& snap) {
  HINET_REQUIRE(!started_,
                "Engine::restore() requires a freshly built engine (rebuild "
                "the spec with the same factory and seed first)");
  const std::size_t n = net_->node_count();
  ByteReader r(snap.payload, "snapshot payload");
  // Cleared only once every section has decoded: a throw part-way leaves
  // the channel and a prefix of the processes restored, which start()
  // must not build on.  Another restore() overwrites every section.
  partly_restored_ = true;

  const std::uint64_t stored_round = r.u64();
  const std::uint64_t stored_n = r.u64();
  if (stored_n != n) {
    std::ostringstream os;
    os << "snapshot corrupt or mismatched: stored node count " << stored_n
       << " differs from the spec's " << n
       << " — restore requires an identically-built spec";
    throw IoError(os.str());
  }
  EngineConfig cfg;
  cfg.max_rounds = r.u64();
  cfg.stop_when_complete = r.u8() != 0;
  cfg.deadline_ms = r.u64();
  SimMetrics metrics = load_metrics(r);
  if (metrics.per_node_tx_tokens.size() != n ||
      metrics.per_node_rx_tokens.size() != n) {
    std::ostringstream os;
    os << "snapshot corrupt: per-node metric vectors sized "
       << metrics.per_node_tx_tokens.size() << "/"
       << metrics.per_node_rx_tokens.size() << ", expected " << n;
    throw IoError(os.str());
  }
  if (metrics.rounds_executed != stored_round || stored_round > cfg.max_rounds ||
      metrics.tokens_sent_per_round.size() != stored_round ||
      metrics.complete_nodes_per_round.size() != stored_round) {
    std::ostringstream os;
    os << "snapshot corrupt: round counter " << stored_round
       << " disagrees with the recorded series (rounds_executed="
       << metrics.rounds_executed << ", per-round series "
       << metrics.tokens_sent_per_round.size() << "/"
       << metrics.complete_nodes_per_round.size() << ", max_rounds="
       << cfg.max_rounds << ")";
    throw IoError(os.str());
  }

  const bool stored_channel = r.u8() != 0;
  if (stored_channel != (channel_ != nullptr)) {
    throw IoError(
        std::string("snapshot corrupt or mismatched: snapshot was taken ") +
        (stored_channel ? "with" : "without") +
        " a channel model but this spec has the opposite — restore requires "
        "an identically-built spec");
  }
  if (channel_ != nullptr) {
    ByteReader cr(r.blob(), "snapshot channel state");
    channel_->restore_state(cr);
    cr.expect_done();
  }
  for (NodeId v = 0; v < n; ++v) {
    ByteReader pr(r.blob(), "snapshot process state");
    processes_[v]->restore_state(pr);
    pr.expect_done();
  }
  r.expect_done();

  // Commit only after the whole payload decoded cleanly.  The topology is
  // not in the snapshot: the first step() reads round stored_round from
  // the freshly built spec, which a stream synthesizes forward from its
  // seed.
  partly_restored_ = false;
  started_ = true;
  cfg_ = cfg;
  round_ = stored_round;
  metrics_ = std::move(metrics);

  // Completion flags are derived, not stored.
  rescan_completion();

  // The wall-clock budget restarts on resume (documented in spec.hpp).
  arm_deadline();
}

void Engine::arm_deadline() {
  // Budgets too large to represent as a clock offset (possible via a
  // corrupted-but-CRC-free snapshot payload, or a caller passing ~2^63 ms)
  // cannot ever fire; treat them as "no deadline" instead of overflowing
  // the duration arithmetic.
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

}  // namespace hinet
