// Negative tests for detlint: every rule must fire on its fixture, honor the
// auditable suppression forms, and stay quiet on clean code.  The fixtures
// live under tests/tools/detlint_fixtures/ and are lint-test data only (the
// repo-wide walk never enters their directory, and they are never compiled).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "detlint/linter.hpp"
#include "detlint/rules.hpp"

namespace hinet::detlint {
namespace {

std::vector<Finding> lint_fixture(const std::string& name) {
  const std::filesystem::path file =
      std::filesystem::path(DETLINT_FIXTURE_DIR) / name;
  const auto findings = lint_file(file);
  EXPECT_TRUE(findings.has_value()) << "unreadable fixture " << file;
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

TEST(Detlint, BannedRandomFiresOnEveryEngine) {
  const auto findings = lint_fixture("banned_random.cpp");
  // srand, rand, random_device, mt19937 (+ random_device use on the same
  // line), mt19937_64, default_random_engine.
  EXPECT_GE(count_rule(findings, kRuleBannedRandom), 6u);
  EXPECT_EQ(count_rule(findings, kRuleBannedRandom), findings.size())
      << "only banned-random findings expected in this fixture";
  const auto lines = lines_of(findings, kRuleBannedRandom);
  EXPECT_TRUE(lines.contains(7));   // std::srand(42)
  EXPECT_TRUE(lines.contains(8));   // std::rand()
  EXPECT_TRUE(lines.contains(9));   // std::random_device
  EXPECT_TRUE(lines.contains(12));  // std::default_random_engine
  // Two std::rand() calls on one line are one finding.
  EXPECT_EQ(std::count_if(findings.begin(), findings.end(),
                          [](const Finding& f) { return f.line == 13; }),
            1);
}

TEST(Detlint, BannedTimeFiresOnClocksAndLibc) {
  const auto findings = lint_fixture("banned_time.cpp");
  EXPECT_GE(count_rule(findings, kRuleBannedTime), 4u);
  const auto lines = lines_of(findings, kRuleBannedTime);
  EXPECT_TRUE(lines.contains(7));   // steady_clock
  EXPECT_TRUE(lines.contains(8));   // system_clock
  EXPECT_TRUE(lines.contains(9));   // high_resolution_clock
  EXPECT_TRUE(lines.contains(10));  // std::time(nullptr)
  EXPECT_TRUE(lines.contains(15));  // steady_clock in a #define body
}

TEST(Detlint, PointerOrderFiresOnPointerKeys) {
  const auto findings = lint_fixture("pointer_order.cpp");
  EXPECT_GE(count_rule(findings, kRulePointerOrder), 4u);
  const auto lines = lines_of(findings, kRulePointerOrder);
  EXPECT_TRUE(lines.contains(13));  // std::set<Node*>
  EXPECT_TRUE(lines.contains(14));  // std::map<Node*, int>
  EXPECT_TRUE(lines.contains(15));  // std::less<Node*>
  EXPECT_TRUE(lines.contains(16));  // reinterpret_cast<std::uintptr_t>
  EXPECT_TRUE(lines.contains(17));  // std::less< split across two lines
}

TEST(Detlint, UnorderedIterationFiresOnLoopsAndExplicitWalks) {
  const auto findings = lint_fixture("unordered_iteration.cpp");
  EXPECT_GE(count_rule(findings, kRuleUnorderedIteration), 3u);
  const auto lines = lines_of(findings, kRuleUnorderedIteration);
  EXPECT_TRUE(lines.contains(15));  // range-for over 'counts'
  EXPECT_TRUE(lines.contains(18));  // range-for over 'seen'
  EXPECT_TRUE(lines.contains(21));  // index.begin() via the 'Index' alias
}

TEST(Detlint, HotPathAllocFiresOnlyInsideDeclaredRegions) {
  const auto findings = lint_fixture("hotpath_alloc.cpp");
  EXPECT_EQ(count_rule(findings, kRuleHotPathAlloc), findings.size());
  const auto lines = lines_of(findings, kRuleHotPathAlloc);
  // The cold function (lines 8-13) performs the same allocations and must
  // stay silent.
  EXPECT_TRUE(lines.empty() || *lines.begin() >= 15u)
      << "cold-path allocation was flagged";
  EXPECT_TRUE(lines.contains(17));  // v.resize(128)
  EXPECT_TRUE(lines.contains(18));  // v.reserve(256)
  EXPECT_TRUE(lines.contains(19));  // std::malloc
  EXPECT_TRUE(lines.contains(21));  // std::make_unique
  EXPECT_TRUE(lines.contains(22));  // new int(9)
  // push_back (line 24) is sanctioned and must not be flagged.
  EXPECT_FALSE(lines.contains(24));
}

TEST(Detlint, WellFormedSuppressionsSilenceEveryForm) {
  const auto findings = lint_fixture("suppressions_ok.cpp");
  EXPECT_TRUE(findings.empty()) << "first unexpected finding: "
                                << (findings.empty()
                                        ? ""
                                        : findings.front().rule + " at line " +
                                              std::to_string(
                                                  findings.front().line));
}

TEST(Detlint, MalformedSuppressionsAreFindingsAndDoNotSilence) {
  const auto findings = lint_fixture("bad_suppression.cpp");
  // Reason-less allow, unknown rule, missing parentheses, nested hot region.
  EXPECT_GE(count_rule(findings, kRuleBadDirective), 4u);
  // Both rand() calls must still be reported: a void suppression suppresses
  // nothing.
  EXPECT_EQ(count_rule(findings, kRuleBannedRandom), 2u);
}

TEST(Detlint, CleanFileHasNoFindings) {
  const auto findings = lint_fixture("clean.cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(Detlint, PathExemptionsForRngHomeAndBenchTimers) {
  // src/util/rng is the sanctioned home of raw randomness.
  EXPECT_TRUE(lint_text("src/util/rng.hpp",
                        "struct S { unsigned long s_[4]; };\n")
                  .empty());
  EXPECT_TRUE(
      lint_text("src/util/rng.cpp", "void f() { auto rd = rand(); (void)rd; }\n")
          .empty());
  // The same text anywhere else must fire.
  EXPECT_EQ(lint_text("src/sim/engine.cpp",
                      "void f() { auto rd = rand(); (void)rd; }\n")
                .size(),
            1u);
  // bench/ owns wall-clock timers.
  const std::string timer =
      "void g() { auto t = std::chrono::steady_clock::now(); (void)t; }\n";
  EXPECT_TRUE(lint_text("bench/engine_hotpath.cpp", timer).empty());
  EXPECT_EQ(lint_text("src/core/alg1.cpp", timer).size(), 1u);
}

TEST(Detlint, LiteralsAndCommentsNeverFire) {
  EXPECT_TRUE(lint_text("src/x.cpp",
                        "const char* s = \"rand() mt19937 steady_clock\";\n"
                        "// prose mentioning rand() and system_clock\n"
                        "/* block comment: random_device */\n")
                  .empty());
  // Raw strings too.
  EXPECT_TRUE(
      lint_text("src/x.cpp", "const char* s = R\"(std::rand())\";\n").empty());
}

TEST(Detlint, FindingsAreDeterministicallyOrdered) {
  const auto a = lint_fixture("banned_random.cpp");
  const auto b = lint_fixture("banned_random.cpp");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].line, b[i].line);
    EXPECT_EQ(a[i].rule, b[i].rule);
  }
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const Finding& x, const Finding& y) {
                               return x.line <= y.line;
                             }));

  // Two findings of one rule on one line keep their order when an
  // unrelated finding appears above them.  It takes more than 16
  // findings: libstdc++ sorts up to 16 elements by insertion, which is
  // stable.
  std::string body;
  for (int i = 0; i < 40; ++i) {
    body += "void f" + std::to_string(i) +
            "() { std::mt19937 g; random (3); }\n";
  }
  const auto plain = lint_text("src/x.cpp", body);
  const auto shifted = lint_text("src/x.cpp", "int r = std::rand();\n" + body);
  ASSERT_EQ(plain.size(), 80u);
  ASSERT_EQ(shifted.size(), plain.size() + 1);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(shifted[i + 1].line, plain[i].line + 1) << "finding " << i;
    EXPECT_EQ(shifted[i + 1].message, plain[i].message) << "finding " << i;
  }
}

TEST(Detlint, RuleCatalogIsClosedUnderIsKnownRule) {
  for (const RuleInfo& r : rule_catalog()) {
    EXPECT_TRUE(is_known_rule(r.name)) << r.name;
    EXPECT_FALSE(r.summary.empty()) << r.name;
  }
  EXPECT_FALSE(is_known_rule("no-such-rule"));
  EXPECT_FALSE(is_known_rule(""));
}

TEST(Detlint, CollectSourcesHonorsExcludesAndSorts) {
  // A root is walked even when it is a fixture directory itself.
  const std::vector<std::string> fixtures = {DETLINT_FIXTURE_DIR};
  const auto all = collect_sources(fixtures);
  EXPECT_GE(all.size(), 8u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const auto& x, const auto& y) {
                               return x.generic_string() < y.generic_string();
                             }));
  // A walk from above never enters it; a fixture named directly still
  // counts.
  const std::vector<std::string> roots = {
      std::filesystem::path(DETLINT_FIXTURE_DIR).parent_path().string(),
      all.front().string()};
  const auto walked = collect_sources(roots);
  EXPECT_EQ(std::count_if(walked.begin(), walked.end(),
                          [](const auto& f) {
                            return f.generic_string().find(
                                       "detlint_fixtures") != std::string::npos;
                          }),
            1);
  EXPECT_TRUE(std::any_of(walked.begin(), walked.end(), [](const auto& f) {
    return f.filename() == "test_detlint.cpp";
  }));
}

}  // namespace
}  // namespace hinet::detlint
