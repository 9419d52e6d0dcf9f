#include "graph/adversary.hpp"

#include "graph/generators.hpp"

namespace hinet {

namespace {

Graph make_backbone(std::size_t nodes, bool path_backbone, Rng& rng) {
  if (path_backbone) {
    // Random relabelled path: permute node ids along a line.  A path is
    // the worst stable subgraph the model allows (diameter n-1), which
    // makes pipelined dissemination as slow as possible.
    std::vector<NodeId> order(nodes);
    for (NodeId i = 0; i < nodes; ++i) order[i] = i;
    rng.shuffle(order);
    std::vector<Edge> edges;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      edges.push_back({order[i], order[i + 1]});
    }
    return Graph(nodes, edges);
  }
  return gen::random_tree(nodes, rng);
}

}  // namespace

TIntervalNetwork::TIntervalNetwork(const AdversaryConfig& cfg,
                                   bool path_backbone)
    : StreamingNetwork(cfg.nodes, cfg.rounds),
      cfg_(cfg),
      path_backbone_(path_backbone) {
  HINET_REQUIRE(cfg.interval >= 1, "T must be >= 1");
  reset_generator();
}

void TIntervalNetwork::reset_generator() {
  Rng rng(cfg_.seed);
  backbone_rng_ = rng.fork();
  churn_rng_ = rng.fork();
  cur_window_ = 0;
  // One backbone per aligned window of T rounds, plus one beyond the end.
  // T-interval connectivity quantifies over *sliding* windows, so a window
  // straddling two aligned windows must still share a stable connected
  // spanning subgraph.  We achieve that by giving every round of window w
  // the edges of both backbone_w and backbone_{w+1}: any sliding window
  // [i, i+T) touches at most aligned windows w and w+1, and all of its
  // rounds then contain backbone_{w+1}.  Lazily generated: only the two
  // live backbones are ever resident.
  backbone_cur_ = make_backbone(cfg_.nodes, path_backbone_, backbone_rng_);
  backbone_next_ = make_backbone(cfg_.nodes, path_backbone_, backbone_rng_);
}

Graph TIntervalNetwork::synthesize_next() {
  const std::size_t w = frontier() / cfg_.interval;
  // Rounds are synthesised monotonically, so the window index advances by
  // at most one per call and the backbone RNG draws in exactly the eager
  // generator's order (w = 0, 1, 2, ... each drawn once).
  if (w > cur_window_) {
    backbone_cur_ = std::move(backbone_next_);
    backbone_next_ = make_backbone(cfg_.nodes, path_backbone_, backbone_rng_);
    ++cur_window_;
  }
  std::vector<Edge> edges = backbone_cur_.edges();
  const std::vector<Edge> next = backbone_next_.edges();
  edges.insert(edges.end(), next.begin(), next.end());
  gen::append_churn_edges(edges, cfg_.nodes, cfg_.churn_edges, churn_rng_);
  return Graph(cfg_.nodes, edges);
}

namespace {

GraphSequence generate(const AdversaryConfig& cfg, bool path_backbone) {
  HINET_REQUIRE(cfg.nodes >= 1, "adversary needs nodes");
  HINET_REQUIRE(cfg.rounds >= 1, "trace needs at least one round");
  TIntervalNetwork net(cfg, path_backbone);
  return materialize(net, cfg.rounds);
}

}  // namespace

GraphSequence make_t_interval_trace(const AdversaryConfig& cfg) {
  return generate(cfg, /*path_backbone=*/false);
}

GraphSequence make_t_interval_path_trace(const AdversaryConfig& cfg) {
  return generate(cfg, /*path_backbone=*/true);
}

}  // namespace hinet
