// Internal rule registry for detlint.  The v1 rules scan the code channel of
// a SourceFile; the v2 rules walk its token stream.  Suppression handling
// lives in linter.cpp.
#pragma once

#include <string_view>
#include <vector>

#include "detlint/layers.hpp"
#include "detlint/linter.hpp"
#include "detlint/source_scan.hpp"

namespace hinet::detlint {

// Rule names, shared between the checkers, the directive parser, and tests.
inline constexpr std::string_view kRuleBannedRandom = "banned-random";
inline constexpr std::string_view kRuleBannedTime = "banned-time";
inline constexpr std::string_view kRulePointerOrder = "pointer-order";
inline constexpr std::string_view kRuleUnorderedIteration =
    "unordered-iteration";
inline constexpr std::string_view kRuleHotPathAlloc = "hot-path-alloc";
inline constexpr std::string_view kRuleBadDirective = "bad-directive";
inline constexpr std::string_view kRuleIncludeLayering = "include-layering";
inline constexpr std::string_view kRuleDurabilityOrdering =
    "durability-ordering";
inline constexpr std::string_view kRuleSerializationSymmetry =
    "serialization-symmetry";

// Runs every pattern rule over `file`.  `hot[i]` marks line i+1 as inside a
// declared hot-path region.  Raw findings are appended to `out`
// (suppressions not yet applied).
void run_rules(const SourceFile& file, const std::vector<char>& hot,
               std::vector<Finding>& out);

// Runs the token-stream rules: durability-ordering and
// serialization-symmetry always, include-layering when a layer manifest is
// supplied.  Raw findings are appended to `out` (suppressions not yet
// applied).
void run_token_rules(const SourceFile& file, const LayerManifest* layers,
                     std::vector<Finding>& out);

}  // namespace hinet::detlint
