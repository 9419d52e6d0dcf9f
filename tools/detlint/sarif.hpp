// Minimal SARIF 2.1.0 serializer for detlint findings, so CI can upload the
// run to code-scanning UIs.  One run, one tool, one result per finding; the
// rule catalog becomes tool.driver.rules.  Hand-rolled JSON (the toolchain
// image carries no JSON library) — the emitted subset is flat enough that
// escaping strings is the only hazard.
#pragma once

#include <string>
#include <vector>

#include "detlint/linter.hpp"

namespace hinet::detlint {

// Renders findings as a complete SARIF 2.1.0 document.
std::string to_sarif(const std::vector<Finding>& findings);

}  // namespace hinet::detlint
