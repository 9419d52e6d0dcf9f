// The declared include-layer order for the include-layering rule.
//
// The layers are listed bottom-up in one table in layers.cpp; a file in
// layer i may include headers from layers 0..i and nothing above.  Each
// layer carries file roots, which locate a source file's layer from its
// repo-relative path ("src/sim/engine.cpp" → sim), and an include prefix,
// which locates an included header's layer from the include string
// ("sim/engine.hpp" → sim).  Paths and includes matching no layer are
// outside the DAG and never reported (system headers, third-party code).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace hinet::detlint {

inline constexpr std::size_t kNoLayer = static_cast<std::size_t>(-1);

// Rank of the layer owning this source path / include string, or kNoLayer.
std::size_t layer_of_file(std::string_view generic_path);
std::size_t layer_of_include(std::string_view header);

std::string_view layer_name(std::size_t rank);

// "util < graph < … < top" — used in finding messages.
std::string layer_order();

}  // namespace hinet::detlint
