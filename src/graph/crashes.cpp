#include "graph/crashes.hpp"

namespace hinet {

std::vector<NodeId> alive_nodes(std::size_t node_count, Round r,
                                std::span<const CrashEvent> crashes) {
  std::vector<char> dead(node_count, 0);
  for (const CrashEvent& c : crashes) {
    if (c.node < node_count && c.down_at(r)) dead[c.node] = 1;
  }
  std::vector<NodeId> out;
  for (NodeId v = 0; v < node_count; ++v) {
    if (!dead[v]) out.push_back(v);
  }
  return out;
}

}  // namespace hinet
