#include "graph/markovian.hpp"

namespace hinet {

EdgeMarkovianNetwork::EdgeMarkovianNetwork(const MarkovianConfig& cfg)
    : StreamingNetwork(cfg.nodes, cfg.rounds), cfg_(cfg) {
  HINET_REQUIRE(cfg.birth >= 0.0 && cfg.birth <= 1.0, "birth outside [0,1]");
  HINET_REQUIRE(cfg.death >= 0.0 && cfg.death <= 1.0, "death outside [0,1]");
  HINET_REQUIRE(cfg.initial >= 0.0 && cfg.initial <= 1.0,
                "initial density outside [0,1]");
  reset_generator();
}

void EdgeMarkovianNetwork::reset_generator() {
  rng_.reseed(cfg_.seed);
  prev_ = Graph();
}

Graph EdgeMarkovianNetwork::synthesize_next() {
  const std::size_t n = cfg_.nodes;
  std::vector<Edge> edges;
  if (frontier() == 0) {
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        if (rng_.bernoulli(cfg_.initial)) edges.push_back({i, j});
      }
    }
  } else {
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        const bool present = prev_.has_edge(i, j);
        const bool keep = present ? !rng_.bernoulli(cfg_.death)
                                  : rng_.bernoulli(cfg_.birth);
        if (keep) edges.push_back({i, j});
      }
    }
  }
  prev_ = Graph(n, edges);
  return prev_;
}

GraphSequence make_edge_markovian_trace(const MarkovianConfig& cfg) {
  HINET_REQUIRE(cfg.nodes >= 1, "EMDG needs nodes");
  HINET_REQUIRE(cfg.rounds >= 1, "trace needs at least one round");
  EdgeMarkovianNetwork net(cfg);
  return materialize(net, cfg.rounds);
}

double edge_markovian_stationary_density(double birth, double death) {
  HINET_REQUIRE(birth + death > 0.0, "degenerate chain");
  return birth / (birth + death);
}

}  // namespace hinet
