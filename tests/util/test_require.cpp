// Contract macros and TokenSet raw-word access.
#include <gtest/gtest.h>

#include "util/require.hpp"
#include "util/token_set.hpp"

namespace hinet {
namespace {

TEST(Require, PassingConditionIsSilent) {
  EXPECT_NO_THROW(HINET_REQUIRE(1 + 1 == 2, "math"));
  EXPECT_NO_THROW(HINET_ENSURE(true, ""));
}

TEST(Require, FailureThrowsTypedExceptionWithContext) {
  try {
    HINET_REQUIRE(2 < 1, "expected order");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("expected order"), std::string::npos);
    EXPECT_NE(what.find("test_require.cpp"), std::string::npos);
    // rule() is the message alone, the text a usage error shows.
    EXPECT_EQ(e.rule(), "expected order");
  }
  EXPECT_EQ(PreconditionError("built without a rule").rule(),
            "built without a rule");
}

TEST(Require, EnsureThrowsInvariantError) {
  EXPECT_THROW(HINET_ENSURE(false, "broken"), InvariantError);
  // InvariantError and PreconditionError are distinct types.
  EXPECT_THROW(
      {
        try {
          HINET_ENSURE(false, "x");
        } catch (const PreconditionError&) {
          FAIL() << "wrong exception type";
        }
      },
      InvariantError);
}

TEST(Require, MacroIsStatementSafe) {
  // Must compose with if/else without braces.
  if (true)
    HINET_REQUIRE(true, "");
  else
    HINET_REQUIRE(true, "");
  SUCCEED();
}

TEST(TokenSetWords, RawViewMatchesMembership) {
  TokenSet s(130, {0, 63, 64, 129});
  const auto w = s.words();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0], (1ULL << 0) | (1ULL << 63));
  EXPECT_EQ(w[1], 1ULL << 0);
  EXPECT_EQ(w[2], 1ULL << 1);
}

}  // namespace
}  // namespace hinet
