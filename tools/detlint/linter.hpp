// detlint: the project's determinism and hot-path linter.
//
// The engine's reproducibility contract is that every run is a pure function
// of (spec, seed).  The golden-metric tests only *sample* that contract; this
// linter enforces the invariants statically, so a contributor cannot
// reintroduce a nondeterminism source (ad-hoc RNG, wall-clock reads, pointer
// ordering, hash-order iteration) or an allocation in a declared hot path
// without leaving an auditable suppression behind.
//
// Every rule reads the token stream of source_scan.hpp — deliberately
// dependency-free (no libclang in the toolchain image) and deterministic
// itself.  Besides the name and shape rules above, structural rules walk
// function bodies and the include list: include-layering (the layer table
// in layers.cpp), durability-ordering (fsync-before-rename / parent-dir
// fsync / append fdatasync), and serialization-symmetry (writer/reader
// type-tag lockstep).  See docs/static_analysis.md for the rule catalog and
// the suppression policy.
#pragma once

#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "detlint/source_scan.hpp"

namespace hinet::detlint {

struct Finding {
  std::string path;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
};

// Stable, name-sorted registry of every rule the linter can emit.
std::span<const RuleInfo> rule_catalog();
bool is_known_rule(std::string_view name);

// Lint already-scanned source.  Findings are sorted by line, suppressions
// already applied; directive errors surface as `bad-directive` findings and
// are never suppressible.
std::vector<Finding> lint_source(const SourceFile& file);

// Convenience: scan + lint a text buffer under the given path (the path
// drives per-rule exemptions such as bench/ timers).
std::vector<Finding> lint_text(std::string path, std::string_view text);

// Read a file from disk and lint it; nullopt when the file is unreadable.
// `path_for_rules` defaults to the generic form of `file`.
std::optional<std::vector<Finding>> lint_file(
    const std::filesystem::path& file, std::string path_for_rules = {});

// Recursively collect lintable sources (.cpp/.cc/.cxx/.hpp/.hh/.h) under the
// given files/directories.  A walk never enters a directory named
// `detlint_fixtures`: those files hold every banned pattern on purpose and
// are linted by the detlint tests; a root or a file named directly is still
// collected.  The result is sorted so the linter's own output order is
// deterministic.
std::vector<std::filesystem::path> collect_sources(
    std::span<const std::string> roots);

}  // namespace hinet::detlint
