#include "sim/faults.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace hinet {

bool FaultPlan::active_at(Round r) const {
  for (const CrashEvent& c : crashes) {
    if (c.down_at(r)) return true;
  }
  for (const PartitionEvent& p : partitions) {
    if (p.active_at(r)) return true;
  }
  for (const LinkBurst& b : bursts) {
    if (b.active_at(r)) return true;
  }
  return false;
}

bool FaultPlan::node_down(NodeId v, Round r) const {
  for (const CrashEvent& c : crashes) {
    if (c.node == v && c.down_at(r)) return true;
  }
  return false;
}

void FaultPlan::validate(std::size_t node_count) const {
  for (const CrashEvent& c : crashes) {
    HINET_REQUIRE(c.node < node_count, "crash node out of range");
    HINET_REQUIRE(c.recovery > c.round, "recovery must be after the crash");
  }
  for (const PartitionEvent& p : partitions) {
    HINET_REQUIRE(p.heal > p.start, "partition must heal after it starts");
    HINET_REQUIRE(!p.group.empty(), "partition group must be non-empty");
    for (NodeId v : p.group) {
      HINET_REQUIRE(v < node_count, "partition node out of range");
    }
  }
  for (const LinkBurst& b : bursts) {
    HINET_REQUIRE(b.length >= 1, "link burst needs length >= 1");
    for (const Edge& e : b.links) {
      HINET_REQUIRE(e.u < node_count && e.v < node_count,
                    "burst link endpoint out of range");
    }
  }
}

FaultPlan random_churn_plan(std::size_t node_count, std::size_t crash_count,
                            std::size_t horizon, std::size_t downtime,
                            std::uint64_t seed) {
  HINET_REQUIRE(crash_count <= node_count, "cannot crash more nodes than exist");
  HINET_REQUIRE(horizon >= 1, "horizon must be >= 1");
  HINET_REQUIRE(downtime >= 1, "downtime must be >= 1");
  Rng rng(seed);
  FaultPlan plan;
  const auto victims = rng.sample(node_count, crash_count);
  plan.crashes.reserve(crash_count);
  for (std::size_t v : victims) {
    CrashEvent c;
    c.node = static_cast<NodeId>(v);
    c.round = rng.below(horizon);
    c.recovery = downtime == kNoRecovery ? kNoRecovery : c.round + downtime;
    plan.crashes.push_back(c);
  }
  // Sort by crash round so plans read chronologically in logs and JSON.
  std::sort(plan.crashes.begin(), plan.crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.round != b.round ? a.round < b.round : a.node < b.node;
            });
  return plan;
}

FaultyNetwork::FaultyNetwork(std::unique_ptr<DynamicNetwork> base,
                             FaultPlan plan)
    : owned_(std::move(base)), base_(owned_.get()), plan_(std::move(plan)) {
  HINET_REQUIRE(base_ != nullptr, "FaultyNetwork needs a base network");
  plan_.validate(base_->node_count());
}

FaultyNetwork::FaultyNetwork(DynamicNetwork& base, FaultPlan plan)
    : base_(&base), plan_(std::move(plan)) {
  plan_.validate(base_->node_count());
}

const Graph& FaultyNetwork::graph_at(Round r) {
  // Fault-free rounds (in particular: every round of an empty plan) forward
  // the base graph by reference — the decorator is zero-cost when unused.
  if (!plan_.active_at(r)) return base_->graph_at(r);
  if (cache_valid_ && cache_round_ == r) return cache_;
  return rebuild(r);
}

const Graph& FaultyNetwork::rebuild(Round r) {
  const Graph& base = base_->graph_at(r);
  const std::size_t n = base.node_count();
  // What this round's faults cut: crashed endpoints, edges leaving an
  // active partition's group, and the links of active bursts.
  std::vector<char> down(n, 0);
  for (const CrashEvent& c : plan_.crashes) {
    if (c.down_at(r)) down[c.node] = 1;
  }
  std::vector<std::vector<char>> groups;
  for (const PartitionEvent& p : plan_.partitions) {
    if (!p.active_at(r)) continue;
    std::vector<char>& inside = groups.emplace_back(n, 0);
    for (NodeId v : p.group) inside[v] = 1;
  }
  std::vector<Edge> burst;
  for (const LinkBurst& b : plan_.bursts) {
    if (!b.active_at(r)) continue;
    for (const Edge& e : b.links) {
      if (e.u != e.v) burst.push_back(make_edge(e.u, e.v));
    }
  }
  std::sort(burst.begin(), burst.end());

  std::vector<Edge> kept;
  kept.reserve(base.edge_count());
  for (NodeId u = 0; u < n; ++u) {
    if (down[u]) continue;
    for (NodeId v : base.neighbors(u)) {
      if (v < u || down[v]) continue;
      const auto separates = [&](const std::vector<char>& inside) {
        return inside[u] != inside[v];
      };
      if (std::any_of(groups.begin(), groups.end(), separates) ||
          std::binary_search(burst.begin(), burst.end(), Edge{u, v})) {
        continue;
      }
      kept.push_back({u, v});
    }
  }
  cache_ = Graph(n, kept);
  cache_round_ = r;
  cache_valid_ = true;
  return cache_;
}

}  // namespace hinet
