#include "detlint/layers.hpp"

#include <array>

namespace hinet::detlint {

namespace {

struct Layer {
  std::string_view name;
  std::string_view include_prefix;
  std::array<std::string_view, 4> file_roots;  // unused slots stay empty
};

// The tree's real include graph, bottom-up.  `top` may include anything;
// its one include prefix is the linter's own library, included by its
// tests.
constexpr std::array<Layer, 9> kLayers = {{
    {"util", "util", {"src/util"}},
    {"graph", "graph", {"src/graph"}},
    {"cluster", "cluster", {"src/cluster"}},
    {"sim", "sim", {"src/sim"}},
    {"baseline", "baseline", {"src/baseline"}},
    {"core", "core", {"src/core"}},
    {"analysis", "analysis", {"src/analysis"}},
    {"service", "service", {"src/service"}},
    {"top", "detlint", {"bench", "tests", "tools", "examples"}},
}};

// True when `path` lives under `prefix`: equal, starts with "prefix/", or
// contains "/prefix/" (so absolute fixture paths still map to their layer).
bool path_under(std::string_view path, std::string_view prefix) {
  if (path == prefix) return true;
  if (path.size() > prefix.size() && path.starts_with(prefix) &&
      path[prefix.size()] == '/') {
    return true;
  }
  const std::string needle = "/" + std::string(prefix) + "/";
  return path.find(needle) != std::string_view::npos;
}

}  // namespace

std::size_t layer_of_file(std::string_view generic_path) {
  for (std::size_t i = 0; i < kLayers.size(); ++i) {
    for (const std::string_view root : kLayers[i].file_roots) {
      if (!root.empty() && path_under(generic_path, root)) return i;
    }
  }
  return kNoLayer;
}

std::size_t layer_of_include(std::string_view header) {
  for (std::size_t i = 0; i < kLayers.size(); ++i) {
    const std::string_view prefix = kLayers[i].include_prefix;
    if (header == prefix ||
        (header.size() > prefix.size() && header.starts_with(prefix) &&
         header[prefix.size()] == '/')) {
      return i;
    }
  }
  return kNoLayer;
}

std::string_view layer_name(std::size_t rank) { return kLayers[rank].name; }

std::string layer_order() {
  std::string out;
  for (const Layer& layer : kLayers) {
    if (!out.empty()) out += " < ";
    out += layer.name;
  }
  return out;
}

}  // namespace hinet::detlint
