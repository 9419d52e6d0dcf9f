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

void validate_hinet_config(const HiNetConfig& cfg) {
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

namespace {

/// Validates cfg before the StreamingNetwork base is built, so a bad
/// config reports the generator's diagnostic (e.g. "need at least one
/// phase") rather than the base's, and returns the horizon.
std::size_t checked_horizon(const HiNetConfig& cfg) {
  validate_hinet_config(cfg);
  return cfg.phases * cfg.phase_length;
}

/// The backbone layout: heads threaded on a chain with L-1 relay gateways
/// between consecutive heads.  Persisted across phases unless a rewire is
/// requested, so (1, L) traces can model a quasi-stable relay structure.
struct BackboneLayout {
  std::vector<NodeId> chain;     ///< heads in chain order
  std::vector<NodeId> gateways;  ///< relay nodes, chain order
  std::vector<NodeId> members;   ///< everyone else, in id (draw) order
};

BackboneLayout plan_backbone(const HiNetConfig& cfg,
                             const std::vector<NodeId>& head_set, Rng& rng) {
  const std::size_t n = cfg.nodes;
  const auto l = static_cast<std::size_t>(cfg.hop_l);
  BackboneLayout layout;
  layout.chain = head_set;
  rng.shuffle(layout.chain);

  std::vector<char> on_backbone(n, 0);
  for (NodeId h : layout.chain) on_backbone[h] = 1;

  std::vector<NodeId> pool;
  pool.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    if (!on_backbone[v]) pool.push_back(v);
  }
  const std::size_t relay_count =
      layout.chain.empty() ? 0 : (layout.chain.size() - 1) * (l - 1);
  HINET_REQUIRE(pool.size() >= relay_count,
                "not enough nodes for the backbone relays");
  rng.shuffle(pool);
  layout.gateways.assign(
      pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(relay_count));
  for (NodeId v : layout.gateways) on_backbone[v] = 1;
  layout.members.reserve(n - layout.chain.size() - relay_count);
  for (NodeId v = 0; v < n; ++v) {
    if (!on_backbone[v]) layout.members.push_back(v);
  }
  return layout;
}

struct PhasePlan {
  Graph stable;  ///< backbone + member edges: every round's base CSR
  HierarchyView view;
};

/// A member's head for the next phase, given its head `prev` in the last
/// one: it stays unless the re-affiliation coin fires or `prev` is no
/// longer a head (kNoCluster before phase 0), in which case it draws a head
/// uniformly.  Counts the draws that move it, forced moves included.
ClusterId draw_head(const HiNetConfig& cfg, const BackboneLayout& layout,
                    ClusterId prev, bool prev_is_head, Rng& rng,
                    std::size_t& reaffiliations) {
  if (prev_is_head && !rng.bernoulli(cfg.reaffiliation_prob)) return prev;
  const ClusterId target = rng.pick(layout.chain);
  if (prev != kNoCluster && (!prev_is_head || target != prev)) {
    ++reaffiliations;
  }
  return target;
}

/// Lays out one phase from a backbone layout: collect the chain's edges,
/// then affiliate every non-backbone node with a head (keeping its head in
/// `last`, the last phase's view, when possible: the re-affiliation coin
/// decides churn), and build the phase's CSR once.
PhasePlan plan_phase(const HiNetConfig& cfg, const BackboneLayout& layout,
                     const HierarchyView& last, Rng& rng,
                     std::size_t& reaffiliations) {
  const std::size_t n = cfg.nodes;
  const auto l = static_cast<std::size_t>(cfg.hop_l);
  PhasePlan plan;
  plan.view = HierarchyView(n);
  for (NodeId h : layout.chain) plan.view.set_head(h);

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
      } else if (hop == l - 1) {
        plan.view.set_member(relay, right, /*gateway=*/true);
      } else {
        plan.view.set_unaffiliated_gateway(relay);
      }
      prev = relay;
    }
    stable.push_back({prev, right});
  }

  for (const NodeId v : layout.members) {
    const ClusterId was = last.cluster_of(v);
    const ClusterId target = draw_head(
        cfg, layout, was, was != kNoCluster && plan.view.is_head(was), rng,
        reaffiliations);
    plan.view.set_member(v, target);
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
    validate_hinet_config(cfg);
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

    ever_head_.assign(cfg_.nodes, 0);
    for (NodeId h : head_set_) ever_head_[h] = 1;

    stats_ = HiNetTraceStats{};
    phase_ = 0;
    plan_.view = HierarchyView(cfg_.nodes);  // phase 0: nobody has a head
    plan_current(/*first=*/true);
  }

  /// Plans the next phase (head churn, backbone rewire, affiliation): a
  /// full re-plan when the head set or the backbone changed, else derived
  /// from the current phase (reaffiliate).
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
      plan_ = plan_phase(cfg_, layout_, plan_.view, layout_rng_,
                         stats_.reaffiliation_events);
    } else {
      reaffiliate();
    }
  }

  /// The next phase on an unchanged head set and backbone, as an edit of
  /// the current one.  plan_phase would draw the same coins in the same
  /// order and rebuild the same chain, and every member's last head is
  /// still a head, so only the members whose head changes move: each is
  /// re-pointed in the view, its old head edge is swapped for the new one
  /// in the stable CSR, and only its row is re-validated.
  void reaffiliate() {
    HierarchyView& view = plan_.view;
    movers_.clear();
    cut_.clear();
    put_.clear();
    for (const NodeId v : layout_.members) {
      const ClusterId was = view.cluster_of(v);
      const ClusterId target =
          draw_head(cfg_, layout_, was, /*prev_is_head=*/true, layout_rng_,
                    stats_.reaffiliation_events);
      if (target == was) continue;
      view.set_member(v, target);
      movers_.push_back(v);
      cut_.push_back({v, was});
      put_.push_back({v, target});
    }
    plan_.stable = Graph::edited(plan_.stable, cut_, put_);
    HINET_ENSURE(view.validate(plan_.stable, movers_).empty(),
                 "derived phase hierarchy invalid");
  }

  HiNetConfig cfg_;
  Rng layout_rng_;
  Rng churn_rng_;
  Rng head_rng_;
  std::vector<NodeId> head_set_;
  std::vector<char> ever_head_;
  BackboneLayout layout_;
  PhasePlan plan_;
  std::vector<Edge> churn_;  ///< realize_round's reused draw buffer
  // reaffiliate's reused buffers: the members whose head changed, their
  // old head edges and their new ones.
  std::vector<NodeId> movers_;
  std::vector<Edge> cut_;
  std::vector<Edge> put_;
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

  // No whole-trace re-validation here: every phase's view was validated on
  // its CSR when it was planned (every row on a full re-plan, the movers'
  // rows on a phase derived from a validated one), each round's view IS
  // its phase's validated view, and each round's graph is
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
