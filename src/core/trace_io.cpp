#include "core/trace_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hinet {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  std::ostringstream os;
  os << "trace parse error at line " << line << ": " << what;
  throw std::invalid_argument(os.str());
}

char role_char(NodeRole role) {
  switch (role) {
    case NodeRole::kHead: return 'h';
    case NodeRole::kGateway: return 'g';
    case NodeRole::kMember: return 'm';
  }
  return '?';
}

}  // namespace

void serialize_ctvg(Ctvg& trace, std::ostream& os) {
  const std::size_t n = trace.node_count();
  const std::size_t rounds = trace.round_count();
  os << "hinet-trace v1\n";
  os << "nodes " << n << " rounds " << rounds << '\n';
  for (Round r = 0; r < rounds; ++r) {
    os << "round " << r << '\n';
    os << "edges";
    for (const Edge& e : trace.graph_at(r).edges()) {
      os << ' ' << e.u << '-' << e.v;
    }
    os << '\n';
    const HierarchyView& h = trace.hierarchy_at(r);
    os << "roles ";
    for (NodeId v = 0; v < n; ++v) os << role_char(h.role(v));
    os << '\n';
    os << "clusters";
    for (NodeId v = 0; v < n; ++v) {
      const ClusterId c = h.cluster_of(v);
      if (c == kNoCluster) {
        os << " -";
      } else {
        os << ' ' << c;
      }
    }
    os << '\n';
  }
}

std::string serialize_ctvg(Ctvg& trace) {
  std::ostringstream os;
  serialize_ctvg(trace, os);
  return os.str();
}

Ctvg parse_ctvg(std::istream& is) {
  std::size_t lineno = 0;
  std::string line;
  auto next_line = [&]() -> std::string& {
    if (!std::getline(is, line)) fail(lineno + 1, "unexpected end of input");
    ++lineno;
    return line;
  };

  if (next_line() != "hinet-trace v1") fail(lineno, "bad magic header");

  std::size_t n = 0, rounds = 0;
  {
    std::istringstream hdr(next_line());
    std::string w1, w2;
    if (!(hdr >> w1 >> n >> w2 >> rounds) || w1 != "nodes" || w2 != "rounds") {
      fail(lineno, "expected 'nodes <n> rounds <r>'");
    }
    if (n == 0 || rounds == 0) fail(lineno, "empty trace");
    // Sanity bounds: reject absurd headers before allocating for them
    // (found by the mutation fuzzer — a corrupted digit must produce a
    // clean parse error, not an allocation failure).
    constexpr std::size_t kMaxNodes = 1'000'000;
    constexpr std::size_t kMaxCells = 100'000'000;  // n * rounds
    if (n > kMaxNodes || rounds > kMaxCells / n) {
      fail(lineno, "trace dimensions exceed sanity bounds");
    }
  }

  std::vector<Graph> graphs;
  std::vector<HierarchyView> views;
  graphs.reserve(rounds);
  views.reserve(rounds);

  for (Round r = 0; r < rounds; ++r) {
    {
      std::istringstream rl(next_line());
      std::string w;
      Round idx = 0;
      if (!(rl >> w >> idx) || w != "round" || idx != r) {
        fail(lineno, "expected 'round " + std::to_string(r) + "'");
      }
    }
    std::vector<Edge> edges;
    {
      std::istringstream el(next_line());
      std::string w;
      if (!(el >> w) || w != "edges") fail(lineno, "expected 'edges'");
      std::string tok;
      while (el >> tok) {
        const auto dash = tok.find('-');
        if (dash == std::string::npos) fail(lineno, "bad edge '" + tok + "'");
        unsigned long u = 0, v = 0;
        try {
          u = std::stoul(tok.substr(0, dash));
          v = std::stoul(tok.substr(dash + 1));
        } catch (const std::exception&) {
          fail(lineno, "bad edge '" + tok + "'");
        }
        if (u >= n || v >= n || u == v) {
          fail(lineno, "edge endpoints out of range in '" + tok + "'");
        }
        edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
      }
    }
    std::string roles;
    {
      std::istringstream rl(next_line());
      std::string w;
      if (!(rl >> w >> roles) || w != "roles" || roles.size() != n) {
        fail(lineno, "expected 'roles <n role chars>'");
      }
    }
    HierarchyView h(n);
    {
      std::istringstream cl(next_line());
      std::string w;
      if (!(cl >> w) || w != "clusters") fail(lineno, "expected 'clusters'");
      // Heads must be declared before members can affiliate: two passes.
      std::vector<std::string> cells(n);
      for (NodeId v = 0; v < n; ++v) {
        if (!(cl >> cells[v])) fail(lineno, "too few cluster ids");
      }
      std::string extra;
      if (cl >> extra) fail(lineno, "too many cluster ids");
      for (NodeId v = 0; v < n; ++v) {
        if (roles[v] == 'h') {
          if (cells[v] != std::to_string(v)) {
            fail(lineno, "head must belong to its own cluster");
          }
          h.set_head(v);
        } else if (roles[v] != 'g' && roles[v] != 'm') {
          fail(lineno, std::string("bad role character '") + roles[v] + "'");
        }
      }
      for (NodeId v = 0; v < n; ++v) {
        if (roles[v] == 'h') continue;
        if (cells[v] == "-") {
          if (roles[v] == 'g') h.set_unaffiliated_gateway(v);
          continue;
        }
        unsigned long c = 0;
        try {
          c = std::stoul(cells[v]);
        } catch (const std::exception&) {
          fail(lineno, "bad cluster id '" + cells[v] + "'");
        }
        if (c >= n) fail(lineno, "cluster id out of range");
        if (!h.is_head(static_cast<NodeId>(c))) {
          fail(lineno, "cluster id does not name a head");
        }
        h.set_member(v, static_cast<ClusterId>(c), roles[v] == 'g');
      }
    }
    graphs.emplace_back(n, edges);
    views.push_back(std::move(h));
  }

  return Ctvg(GraphSequence(std::move(graphs)),
              HierarchySequence(std::move(views)));
}

Ctvg parse_ctvg(const std::string& text) {
  std::istringstream is(text);
  return parse_ctvg(is);
}

void save_ctvg(Ctvg& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  serialize_ctvg(trace, os);
  if (!os) throw std::runtime_error("write failed: " + path);
}

Ctvg load_ctvg(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  return parse_ctvg(is);
}

}  // namespace hinet
