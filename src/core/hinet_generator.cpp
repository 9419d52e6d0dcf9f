#include "core/hinet_generator.hpp"

#include <algorithm>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace hinet {

std::size_t hinet_min_nodes(std::size_t heads, int hop_l) {
  HINET_REQUIRE(heads >= 1, "need at least one head");
  HINET_REQUIRE(hop_l >= 1, "L must be >= 1");
  const std::size_t relays =
      heads >= 1 ? (heads - 1) * static_cast<std::size_t>(hop_l - 1) : 0;
  return heads + relays;
}

namespace {

void validate_config(const HiNetConfig& cfg) {
  HINET_REQUIRE(cfg.nodes >= 1, "need nodes");
  HINET_REQUIRE(cfg.heads >= 1, "need at least one head");
  HINET_REQUIRE(cfg.phase_length >= 1, "T must be >= 1");
  HINET_REQUIRE(cfg.phases >= 1, "need at least one phase");
  HINET_REQUIRE(cfg.hop_l >= 1, "L must be >= 1");
  HINET_REQUIRE(cfg.nodes >= hinet_min_nodes(cfg.heads, cfg.hop_l),
                "node budget too small for heads + backbone relays");
  HINET_REQUIRE(
      cfg.reaffiliation_prob >= 0.0 && cfg.reaffiliation_prob <= 1.0,
      "reaffiliation_prob outside [0,1]");
  HINET_REQUIRE(cfg.head_churn_prob >= 0.0 && cfg.head_churn_prob <= 1.0,
                "head_churn_prob outside [0,1]");
  HINET_REQUIRE(
      cfg.backbone_rewire_prob >= 0.0 && cfg.backbone_rewire_prob <= 1.0,
      "backbone_rewire_prob outside [0,1]");
}

/// Validates cfg before the StreamingNetwork base is built, so a bad
/// config reports the generator's diagnostic (e.g. "need at least one
/// phase") rather than the base's, and returns the horizon.
std::size_t checked_horizon(const HiNetConfig& cfg) {
  validate_config(cfg);
  return cfg.phases * cfg.phase_length;
}

/// The backbone layout: heads threaded on a chain with L-1 relay gateways
/// between consecutive heads.  Persisted across phases unless a rewire is
/// requested, so (1, L) traces can model a quasi-stable relay structure.
struct BackboneLayout {
  std::vector<NodeId> chain;     ///< heads in chain order
  std::vector<NodeId> gateways;  ///< relay nodes, chain order
};

BackboneLayout plan_backbone(const HiNetConfig& cfg,
                             const std::vector<NodeId>& head_set, Rng& rng) {
  const std::size_t n = cfg.nodes;
  const auto l = static_cast<std::size_t>(cfg.hop_l);
  BackboneLayout layout;
  layout.chain = head_set;
  rng.shuffle(layout.chain);

  std::vector<char> is_head(n, 0);
  for (NodeId h : layout.chain) is_head[h] = 1;

  std::vector<NodeId> pool;
  pool.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    if (!is_head[v]) pool.push_back(v);
  }
  const std::size_t relay_count =
      layout.chain.empty() ? 0 : (layout.chain.size() - 1) * (l - 1);
  HINET_REQUIRE(pool.size() >= relay_count,
                "not enough nodes for the backbone relays");
  rng.shuffle(pool);
  layout.gateways.assign(
      pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(relay_count));
  return layout;
}

struct PhasePlan {
  std::vector<ClusterId> head_of;  ///< per node affiliation (kNoCluster ok)
  Graph stable;  ///< backbone + member edges: every round's base CSR
  HierarchyView view;
};

/// Lays out one phase from a backbone layout: collect the chain's edges,
/// then affiliate every non-backbone node with a head (keeping its
/// previous head when possible — the re-affiliation coin decides churn),
/// and build the phase's CSR once.
PhasePlan plan_phase(const HiNetConfig& cfg, const BackboneLayout& layout,
                     const std::vector<ClusterId>& prev_head_of, Rng& rng,
                     std::size_t* reaffiliations) {
  const std::size_t n = cfg.nodes;
  const auto l = static_cast<std::size_t>(cfg.hop_l);
  PhasePlan plan;
  plan.view = HierarchyView(n);
  plan.head_of.assign(n, kNoCluster);

  std::vector<char> is_head(n, 0);
  for (NodeId h : layout.chain) {
    plan.view.set_head(h);
    plan.head_of[h] = h;
    is_head[h] = 1;
  }
  std::vector<char> is_gateway(n, 0);
  for (NodeId v : layout.gateways) is_gateway[v] = 1;

  // The chain plus one edge per member is a spanning tree: n - 1 edges.
  std::vector<Edge> stable;
  stable.reserve(n - 1);
  std::size_t relay_cursor = 0;
  for (std::size_t i = 0; i + 1 < layout.chain.size(); ++i) {
    NodeId prev = layout.chain[i];
    const NodeId right = layout.chain[i + 1];
    for (std::size_t hop = 1; hop < l; ++hop) {
      const NodeId relay = layout.gateways[relay_cursor++];
      stable.push_back({prev, relay});
      // Affiliate the relay with whichever chain head it is adjacent to;
      // middle relays of an L>3 backbone touch no head and stay
      // unaffiliated (the "at most one cluster" case).
      if (hop == 1) {
        plan.view.set_member(relay, layout.chain[i], /*gateway=*/true);
        plan.head_of[relay] = layout.chain[i];
      } else if (hop == l - 1) {
        plan.view.set_member(relay, right, /*gateway=*/true);
        plan.head_of[relay] = right;
      } else {
        plan.view.set_unaffiliated_gateway(relay);
      }
      prev = relay;
    }
    stable.push_back({prev, right});
  }

  // Members: everyone not a head or relay.
  for (NodeId v = 0; v < n; ++v) {
    if (is_head[v] || is_gateway[v]) continue;
    const ClusterId prev = prev_head_of[v];
    ClusterId target = kNoCluster;
    const bool prev_valid = prev != kNoCluster && is_head[prev];
    if (prev_valid && !rng.bernoulli(cfg.reaffiliation_prob)) {
      target = prev;
    } else {
      target = rng.pick(layout.chain);
      if (prev_valid && target != prev && reaffiliations != nullptr) {
        ++*reaffiliations;
      }
      // Forced moves (previous head vanished) also count: the member must
      // re-affiliate regardless of the coin.
      if (!prev_valid && prev != kNoCluster && reaffiliations != nullptr) {
        ++*reaffiliations;
      }
    }
    plan.view.set_member(v, target);
    plan.head_of[v] = target;
    stable.push_back({v, target});
  }

  plan.stable = Graph(n, stable);
  HINET_ENSURE(plan.view.validate(plan.stable).empty(),
               "generated phase hierarchy invalid");
  return plan;
}

}  // namespace

namespace detail {

/// The phase-granular generator state machine.  HiNetStreamNetwork runs it
/// round by round and hinet_trace_stats phase by phase; both see the same
/// draw sequence.  After reset() (or construction) the driver holds phase
/// 0's plan; advance() moves to the next phase.
class PhaseDriver {
 public:
  explicit PhaseDriver(const HiNetConfig& cfg) : cfg_(cfg) {
    validate_config(cfg);
    reset();
  }

  void reset() {
    Rng rng(cfg_.seed);
    layout_rng_ = rng.fork();
    churn_rng_ = rng.fork();
    head_rng_ = rng.fork();

    // Initial head set: random distinct nodes.
    head_set_.clear();
    for (std::size_t idx : head_rng_.sample(cfg_.nodes, cfg_.heads)) {
      head_set_.push_back(static_cast<NodeId>(idx));
    }
    std::sort(head_set_.begin(), head_set_.end());

    prev_head_of_.assign(cfg_.nodes, kNoCluster);
    ever_head_.assign(cfg_.nodes, 0);
    for (NodeId h : head_set_) ever_head_[h] = 1;

    stats_ = HiNetTraceStats{};
    phase_ = 0;
    plan_current(/*first=*/true);
  }

  /// Plans the next phase (head churn, backbone rewire, affiliation).
  void advance() {
    ++phase_;
    HINET_REQUIRE(phase_ < cfg_.phases, "advance() past the last phase");
    plan_current(/*first=*/false);
  }

  std::size_t phase() const { return phase_; }
  const HierarchyView& view() const { return plan_.view; }

  /// One realized round: this round's churn draws merged onto the
  /// phase's stable CSR, in one linear pass.
  Graph realize_round() {
    churn_.clear();
    gen::append_churn_edges(churn_, cfg_.nodes, cfg_.churn_edges, churn_rng_);
    return Graph::with_edges(plan_.stable, churn_);
  }

  /// Phase-level statistics accumulated so far; theta is finalized from
  /// the ever-head set on read.  Per-round member statistics are the
  /// caller's (they are plan metadata times phase_length, no draws).
  HiNetTraceStats stats() const {
    HiNetTraceStats s = stats_;
    s.theta = static_cast<std::size_t>(
        std::count(ever_head_.begin(), ever_head_.end(), char(1)));
    return s;
  }

 private:
  void plan_current(bool first) {
    // Head churn at phase boundaries (never in ∞-stable mode).
    bool heads_changed = false;
    if (!first && !cfg_.stable_heads && cfg_.head_churn_prob > 0.0) {
      std::vector<char> is_head(cfg_.nodes, 0);
      for (NodeId x : head_set_) is_head[x] = 1;
      for (NodeId& h : head_set_) {
        if (!head_rng_.bernoulli(cfg_.head_churn_prob)) continue;
        // Swap head role with a random non-head node.
        NodeId replacement = h;
        for (int attempt = 0; attempt < 64; ++attempt) {
          const auto cand = static_cast<NodeId>(head_rng_.below(cfg_.nodes));
          if (!is_head[cand]) {
            replacement = cand;
            break;
          }
        }
        if (replacement != h) {
          is_head[h] = 0;
          is_head[replacement] = 1;
          h = replacement;
          ever_head_[replacement] = 1;
          heads_changed = true;
        }
      }
      if (heads_changed) {
        std::sort(head_set_.begin(), head_set_.end());
        ++stats_.head_changes;
      }
    }

    if (first || heads_changed ||
        layout_rng_.bernoulli(cfg_.backbone_rewire_prob)) {
      layout_ = plan_backbone(cfg_, head_set_, layout_rng_);
    }
    plan_ = plan_phase(cfg_, layout_, prev_head_of_, layout_rng_,
                       &stats_.reaffiliation_events);
    prev_head_of_ = plan_.head_of;
  }

  HiNetConfig cfg_;
  Rng layout_rng_;
  Rng churn_rng_;
  Rng head_rng_;
  std::vector<NodeId> head_set_;
  std::vector<ClusterId> prev_head_of_;
  std::vector<char> ever_head_;
  BackboneLayout layout_;
  PhasePlan plan_;
  std::vector<Edge> churn_;  ///< realize_round's reused draw buffer
  std::size_t phase_ = 0;
  HiNetTraceStats stats_;
};

}  // namespace detail

namespace {

/// make_hinet_stream's two handles: each holds the shared stream, so
/// neither can outlive it.
class HiNetStreamTopology final : public DynamicNetwork {
 public:
  explicit HiNetStreamTopology(std::shared_ptr<HiNetStreamNetwork> net)
      : net_(std::move(net)) {}

  std::size_t node_count() const override { return net_->node_count(); }
  const Graph& graph_at(Round r) override { return net_->graph_at(r); }

 private:
  std::shared_ptr<HiNetStreamNetwork> net_;
};

class HiNetStreamHierarchy final : public HierarchyProvider {
 public:
  explicit HiNetStreamHierarchy(std::shared_ptr<HiNetStreamNetwork> net)
      : net_(std::move(net)) {}

  std::size_t node_count() const override { return net_->node_count(); }
  const HierarchyView& hierarchy_at(Round r) override {
    return net_->hierarchy_at(r);
  }

 private:
  std::shared_ptr<HiNetStreamNetwork> net_;
};

}  // namespace

HiNetStreamNetwork::HiNetStreamNetwork(const HiNetConfig& cfg)
    : StreamingNetwork(cfg.nodes, checked_horizon(cfg)),
      phase_length_(cfg.phase_length),
      driver_(std::make_unique<detail::PhaseDriver>(cfg)),
      views_(this->window()) {}

HiNetStreamNetwork::~HiNetStreamNetwork() = default;

const HierarchyView& HiNetStreamNetwork::hierarchy_at(Round r) {
  // graph_at clamps r and makes round r resident (synthesizing or
  // replaying as needed), which also fills its view slot.
  (void)graph_at(r);
  return views_[std::min(r, round_count() - 1) % views_.size()];
}

Graph HiNetStreamNetwork::synthesize_next() {
  const Round r = frontier();
  while (driver_->phase() < r / phase_length_) driver_->advance();
  views_[r % views_.size()] = driver_->view();
  return driver_->realize_round();
}

void HiNetStreamNetwork::reset_generator() { driver_->reset(); }

HiNetTraceStats hinet_trace_stats(const HiNetConfig& cfg) {
  detail::PhaseDriver driver(cfg);
  double member_round_sum = 0.0;
  for (std::size_t phase = 0;; ++phase) {
    member_round_sum += static_cast<double>(driver.view().member_count()) *
                        static_cast<double>(cfg.phase_length);
    if (phase + 1 >= cfg.phases) break;
    driver.advance();
  }
  HiNetTraceStats stats = driver.stats();
  stats.mean_members =
      member_round_sum / static_cast<double>(cfg.phases * cfg.phase_length);
  stats.mean_reaffiliations =
      stats.mean_members > 0.0
          ? static_cast<double>(stats.reaffiliation_events) /
                stats.mean_members
          : 0.0;
  return stats;
}

HiNetStream make_hinet_stream(const HiNetConfig& cfg) {
  auto net = std::make_shared<HiNetStreamNetwork>(cfg);
  HiNetStream out;
  out.rounds = net->round_count();
  out.topology = std::make_unique<HiNetStreamTopology>(net);
  out.hierarchy = std::make_unique<HiNetStreamHierarchy>(std::move(net));
  return out;
}

HiNetTrace make_hinet_trace(const HiNetConfig& cfg) {
  HiNetStreamNetwork net(cfg);
  const std::size_t rounds = net.round_count();
  std::vector<Graph> graphs;
  std::vector<HierarchyView> views;
  graphs.reserve(rounds);
  views.reserve(rounds);
  for (Round r = 0; r < rounds; ++r) {
    graphs.push_back(net.graph_at(r));
    views.push_back(net.hierarchy_at(r));
  }

  // No whole-trace re-validation here: every phase already passed
  // plan.view.validate(plan.stable) on its CSR at construction, each
  // round's view IS its phase's validated view, and each round's graph is
  // Graph::with_edges(plan.stable, churn), a superset of the validated
  // graph; the per-round check at hop limit 1 is pure edge existence
  // (has_edge), which is monotone under edge addition.  Re-running
  // Ctvg::validate() per round was the single largest cost of trace
  // generation and could never fire.
  Ctvg ctvg(GraphSequence(std::move(graphs)),
            HierarchySequence(std::move(views)));
  return HiNetTrace{std::move(ctvg), hinet_trace_stats(cfg)};
}

}  // namespace hinet
