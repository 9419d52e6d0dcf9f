// Internal rule registry for detlint.  Every rule reads the token stream of
// a SourceFile; suppression handling lives in linter.cpp.
#pragma once

#include <string_view>
#include <vector>

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

// Runs every rule over `file`.  `hot[i]` marks line i+1 as inside a
// declared hot-path region.  Raw findings are appended to `out`
// (suppressions not yet applied).
void run_rules(const SourceFile& file, const std::vector<char>& hot,
               std::vector<Finding>& out);

}  // namespace hinet::detlint
