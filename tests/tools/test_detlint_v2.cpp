// Negative tests for the detlint v2 rule families (include-layering,
// durability-ordering, serialization-symmetry) plus the SARIF and
// glob-exclude machinery.  Each rule must fire on its fixture, be silenced
// by an auditable allow directive, and stay quiet on compliant code.
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
                                  std::string path_for_rules = {},
                                  const LintOptions& opts = {}) {
  const auto findings =
      lint_file(fixture_path(name), std::move(path_for_rules), opts);
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
  const ManifestParse parsed = load_layer_manifest(DETLINT_LAYERS_FILE);
  ASSERT_TRUE(parsed.errors.empty());
  LintOptions opts;
  opts.layers = &parsed.manifest;
  const auto findings = lint_fixture("layering_violation.cpp",
                                     "src/sim/layering_violation.cpp", opts);
  EXPECT_EQ(count_rule(findings, kRuleIncludeLayering), 2u);
  const auto lines = lines_of(findings, kRuleIncludeLayering);
  EXPECT_TRUE(lines.contains(8));  // service/service.hpp from sim
  EXPECT_TRUE(lines.contains(9));  // analysis/crossover.hpp from sim
  // util/sim includes and the angled system include stay legal; the allowed
  // service include on line 13 is suppressed.
  EXPECT_EQ(findings.size(), 2u);
}

TEST(DetlintV2, LayeringOffWithoutManifest) {
  const auto findings =
      lint_fixture("layering_violation.cpp", "src/sim/layering_violation.cpp");
  EXPECT_EQ(count_rule(findings, kRuleIncludeLayering), 0u);
}

TEST(DetlintV2, CheckedInManifestMatchesTreeOrder) {
  const ManifestParse parsed = load_layer_manifest(DETLINT_LAYERS_FILE);
  ASSERT_TRUE(parsed.errors.empty());
  EXPECT_EQ(parsed.manifest.order_string(),
            "util < graph < cluster < sim < baseline < core < analysis < "
            "service < top");
  EXPECT_LT(parsed.manifest.layer_of_file("src/sim/engine.cpp"),
            parsed.manifest.layer_of_include("service/service.hpp"));
  EXPECT_EQ(parsed.manifest.layer_of_file("third_party/x.cpp"),
            LayerManifest::npos);
}

TEST(DetlintV2, ManifestParseReportsErrors) {
  std::string bad = "layre util src/util util\n";
  EXPECT_FALSE(parse_layer_manifest(bad).errors.empty());
  bad = "layer util src/util util\nlayer util src/u2 -\n";
  EXPECT_FALSE(parse_layer_manifest(bad).errors.empty());
  EXPECT_FALSE(parse_layer_manifest("# only comments\n").errors.empty());
  EXPECT_FALSE(parse_layer_manifest("layer broken src/broken\n").errors.empty());
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

// ── glob excludes ───────────────────────────────────────────────────────

TEST(DetlintV2, ExcludeAcceptsDirectoryGlobs) {
  const std::vector<std::string> glob = {"detlint_fixtures/*"};
  EXPECT_TRUE(path_excluded("tests/tools/detlint_fixtures/foo.cpp", glob));
  EXPECT_TRUE(path_excluded("/abs/tests/tools/detlint_fixtures/a/b.hpp", glob));
  EXPECT_FALSE(path_excluded("src/sim/engine.cpp", glob));
  EXPECT_FALSE(path_excluded("src/detlint_fixtures.cpp", glob));

  const std::vector<std::string> question = {"test_?.cpp"};
  EXPECT_TRUE(path_excluded("tests/test_a.cpp", question));
  EXPECT_FALSE(path_excluded("tests/test_ab.cpp", question));

  const std::vector<std::string> cls = {"bench/day[0-9].cpp"};
  EXPECT_TRUE(path_excluded("bench/day3.cpp", cls));
  EXPECT_FALSE(path_excluded("bench/dayx.cpp", cls));

  // v1 behavior: a pattern without metacharacters is a plain substring.
  const std::vector<std::string> substr = {"detlint_fixtures"};
  EXPECT_TRUE(path_excluded("tests/tools/detlint_fixtures/foo.cpp", substr));
  EXPECT_TRUE(path_excluded("src/detlint_fixtures.cpp", substr));
}

TEST(DetlintV2, ExcludeGlobsApplyToSourceCollection) {
  // The include-graph pass walks the files collect_sources returns, so one
  // shared predicate keeps both passes consistent; this guards the
  // collection half against regressions.
  const std::vector<std::string> roots = {DETLINT_FIXTURE_DIR};
  const std::vector<std::string> excludes = {"durability_*"};
  const auto files = collect_sources(roots, excludes);
  ASSERT_FALSE(files.empty());
  for (const auto& f : files) {
    EXPECT_EQ(f.filename().generic_string().find("durability_"),
              std::string::npos)
        << f;
  }
  const bool has_serialization_ok =
      std::any_of(files.begin(), files.end(), [](const auto& f) {
        return f.filename() == "serialization_ok.cpp";
      });
  EXPECT_TRUE(has_serialization_ok);
}

}  // namespace
}  // namespace hinet::detlint
