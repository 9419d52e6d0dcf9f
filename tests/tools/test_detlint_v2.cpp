// Negative tests for detlint's structural rule families (include-layering,
// durability-ordering, serialization-symmetry) plus the SARIF output.  Each
// rule must fire on its fixture, be silenced by an auditable allow
// directive, and stay quiet on compliant code.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "detlint/layers.hpp"
#include "detlint/linter.hpp"
#include "detlint/rules.hpp"
#include "detlint/sarif.hpp"

namespace hinet::detlint {
namespace {

std::filesystem::path fixture_path(const std::string& name) {
  return std::filesystem::path(DETLINT_FIXTURE_DIR) / name;
}

std::vector<Finding> lint_fixture(const std::string& name,
                                  std::string path_for_rules = {}) {
  const auto findings =
      lint_file(fixture_path(name), std::move(path_for_rules));
  EXPECT_TRUE(findings.has_value()) << "unreadable fixture " << name;
  return findings.value_or(std::vector<Finding>{});
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::set<std::size_t> lines_of(const std::vector<Finding>& findings,
                               std::string_view rule) {
  std::set<std::size_t> lines;
  for (const Finding& f : findings) {
    if (f.rule == rule) lines.insert(f.line);
  }
  return lines;
}

// ── durability-ordering ─────────────────────────────────────────────────

TEST(DetlintV2, DurabilityFiresOnUnsyncedPublishAndAppend) {
  const auto findings = lint_fixture("durability_bad.cpp");
  // Two findings on the rename (no file fsync, no parent-dir fsync), one
  // on the unsynced append write, one on the O_EXCL lock create with no
  // parent-dir fsync, one on the lock release with no parent-dir fsync.
  EXPECT_EQ(count_rule(findings, kRuleDurabilityOrdering), 5u);
  EXPECT_EQ(count_rule(findings, kRuleDurabilityOrdering), findings.size())
      << "only durability-ordering findings expected in this fixture";
  const auto lines = lines_of(findings, kRuleDurabilityOrdering);
  EXPECT_TRUE(lines.contains(11));  // rename(tmp, final_path)
  EXPECT_TRUE(lines.contains(15));  // write_all in append_record
  EXPECT_TRUE(lines.contains(19));  // O_EXCL open in acquire_lock_no_dirsync
  EXPECT_TRUE(lines.contains(24));  // unlink in release_lock_no_dirsync
}

TEST(DetlintV2, DurabilityQuietOnCompliantProtocol) {
  EXPECT_TRUE(lint_fixture("durability_ok.cpp").empty());
}

TEST(DetlintV2, DurabilityAllowSuppresses) {
  EXPECT_TRUE(lint_fixture("durability_allow.cpp").empty());
}

// ── serialization-symmetry ──────────────────────────────────────────────

TEST(DetlintV2, SymmetryFiresOnDivergentPairAndBareVersion) {
  const auto findings = lint_fixture("serialization_asymmetric.cpp");
  EXPECT_EQ(count_rule(findings, kRuleSerializationSymmetry), 2u);
  const auto lines = lines_of(findings, kRuleSerializationSymmetry);
  EXPECT_TRUE(lines.contains(12));  // load_state definition
  EXPECT_TRUE(lines.contains(20));  // write_checksummed_file(..., 3)
  // The divergence message names both tag sequences.
  for (const Finding& f : findings) {
    if (f.line == 12) {
      EXPECT_NE(f.message.find("u32"), std::string::npos) << f.message;
      EXPECT_NE(f.message.find("u64"), std::string::npos) << f.message;
    }
  }
}

TEST(DetlintV2, SymmetryQuietOnSymmetricPairAndNestedBlob) {
  // Includes the nested-ByteWriter-then-blob idiom: the helper writing into
  // a local buffer must not be counted against the outer stream.
  EXPECT_TRUE(lint_fixture("serialization_ok.cpp").empty());
}

TEST(DetlintV2, SymmetryAllowSuppresses) {
  EXPECT_TRUE(lint_fixture("serialization_allow.cpp").empty());
}

// ── include-layering ────────────────────────────────────────────────────

TEST(DetlintV2, LayeringFiresOnUpwardIncludeUnderManifest) {
  const auto findings =
      lint_fixture("layering_violation.cpp", "src/sim/layering_violation.cpp");
  EXPECT_EQ(count_rule(findings, kRuleIncludeLayering), 2u);
  const auto lines = lines_of(findings, kRuleIncludeLayering);
  EXPECT_TRUE(lines.contains(8));  // service/service.hpp from sim
  EXPECT_TRUE(lines.contains(9));  // analysis/crossover.hpp from sim
  // util/sim includes and the angled system include stay legal; the allowed
  // service include on line 13 is suppressed.
  EXPECT_EQ(findings.size(), 2u);
}

TEST(DetlintV2, CheckedInManifestMatchesTreeOrder) {
  EXPECT_EQ(layer_order(),
            "util < graph < cluster < sim < baseline < core < analysis < "
            "service < top");
  EXPECT_LT(layer_of_file("src/sim/engine.cpp"),
            layer_of_include("service/service.hpp"));
  EXPECT_EQ(layer_of_file("third_party/x.cpp"), kNoLayer);
}

// ── SARIF ───────────────────────────────────────────────────────────────

TEST(DetlintV2, SarifCarriesRulesResultsAndEscaping) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 7, std::string(kRuleBannedTime), "say \"now\"\n"},
  };
  const std::string sarif = to_sarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"banned-time\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/a.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("say \\\"now\\\"\\n"), std::string::npos);
  // Every catalogued rule is declared to the viewer.
  for (const RuleInfo& r : rule_catalog()) {
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(r.name) + "\""),
              std::string::npos);
  }
}

}  // namespace
}  // namespace hinet::detlint
