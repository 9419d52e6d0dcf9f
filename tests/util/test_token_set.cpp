#include "util/token_set.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "util/rng.hpp"

namespace hinet {
namespace {

TEST(TokenSet, StartsEmpty) {
  TokenSet s(10);
  EXPECT_EQ(s.universe(), 10u);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.full());
}

TEST(TokenSet, InitializerList) {
  TokenSet s(8, {0, 3, 7});
  EXPECT_EQ(s.count(), 3u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(1));
}

TEST(TokenSet, InsertReportsNovelty) {
  TokenSet s(4);
  EXPECT_TRUE(s.insert(2));
  EXPECT_FALSE(s.insert(2));
  EXPECT_EQ(s.count(), 1u);
}

TEST(TokenSet, EraseReportsPresence) {
  TokenSet s(4, {1});
  EXPECT_TRUE(s.erase(1));
  EXPECT_FALSE(s.erase(1));
  EXPECT_TRUE(s.empty());
}

TEST(TokenSet, OutOfUniverseThrows) {
  TokenSet s(4);
  EXPECT_THROW(s.insert(4), PreconditionError);
  EXPECT_THROW(s.contains(100), PreconditionError);
}

TEST(TokenSet, UniverseAboveUint32IsRefused) {
  EXPECT_THROW(TokenSet(std::size_t{1} << 32), PreconditionError);
}

TEST(TokenSet, FullDetection) {
  TokenSet s(3, {0, 1, 2});
  EXPECT_TRUE(s.full());
  s.erase(1);
  EXPECT_FALSE(s.full());
}

TEST(TokenSet, ClearEmpties) {
  TokenSet s(70, {0, 69});
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(TokenSet, UniteCountsNewTokens) {
  TokenSet a(8, {0, 1});
  TokenSet b(8, {1, 2, 3});
  EXPECT_EQ(a.unite(b), 2u);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.unite(b), 0u);
}

TEST(TokenSet, UniteUniverseMismatchThrows) {
  TokenSet a(8);
  TokenSet b(9);
  EXPECT_THROW(a.unite(b), PreconditionError);
}

TEST(TokenSet, SubtractAndIntersect) {
  TokenSet a(8, {0, 1, 2, 3});
  TokenSet b(8, {2, 3, 4});
  TokenSet c = a;
  c.subtract(b);
  EXPECT_EQ(c, TokenSet(8, {0, 1}));
  TokenSet d = a;
  d.intersect(b);
  EXPECT_EQ(d, TokenSet(8, {2, 3}));
}

TEST(TokenSet, SubsetOf) {
  TokenSet a(8, {1, 2});
  TokenSet b(8, {0, 1, 2, 5});
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(a.subset_of(a));
  EXPECT_TRUE(TokenSet(8).subset_of(a));
}

TEST(TokenSet, MinDiffImplementsHeadRule) {
  // Algorithm 1 head rule: t <- min(TA \ TS).
  TokenSet ta(8, {1, 4, 6});
  TokenSet ts(8, {1});
  EXPECT_EQ(ta.min_diff(ts), std::optional<TokenId>(4));
  ts.insert(4);
  EXPECT_EQ(ta.min_diff(ts), std::optional<TokenId>(6));
  ts.insert(6);
  EXPECT_EQ(ta.min_diff(ts), std::nullopt);
}

TEST(TokenSet, MaxDiffImplementsMemberRule) {
  // Algorithm 1 member rule: t <- max(TA \ (TS ∪ TR)).
  TokenSet ta(8, {0, 3, 5});
  TokenSet ts(8, {5});
  TokenSet tr(8, {0});
  EXPECT_EQ(ta.max_diff(ts, tr), std::optional<TokenId>(3));
  tr.insert(3);
  EXPECT_EQ(ta.max_diff(ts, tr), std::nullopt);
}

TEST(TokenSet, MaxDiffSingleArgument) {
  TokenSet ta(8, {0, 3, 5});
  TokenSet ts(8, {5});
  EXPECT_EQ(ta.max_diff(ts), std::optional<TokenId>(3));
}

TEST(TokenSet, MinMaxElements) {
  TokenSet s(130, {5, 64, 129});
  EXPECT_EQ(s.min_element(), std::optional<TokenId>(5));
  EXPECT_EQ(TokenSet(4).min_element(), std::nullopt);
}

TEST(TokenSet, NthIsTheTokenOfThatRank) {
  TokenSet s(300, {5, 63, 64, 129, 299});
  EXPECT_EQ(s.nth(0), std::optional<TokenId>(5));
  EXPECT_EQ(s.nth(1), std::optional<TokenId>(63));
  EXPECT_EQ(s.nth(2), std::optional<TokenId>(64));
  EXPECT_EQ(s.nth(3), std::optional<TokenId>(129));
  EXPECT_EQ(s.nth(4), std::optional<TokenId>(299));
  EXPECT_EQ(s.nth(5), std::nullopt);
  EXPECT_EQ(TokenSet(4).nth(0), std::nullopt);
}

TEST(TokenSet, CrossWordBoundaries) {
  TokenSet s(200);
  for (TokenId t : {63u, 64u, 127u, 128u, 199u}) s.insert(t);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(199));
  TokenSet empty(200);
  EXPECT_EQ(s.min_diff(empty), std::optional<TokenId>(63));
  EXPECT_EQ(s.max_diff(empty), std::optional<TokenId>(199));
}

TEST(TokenSet, ToVectorSortedAscending) {
  TokenSet s(100, {99, 0, 50});
  const auto v = s.to_vector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 0u);
  EXPECT_EQ(v[1], 50u);
  EXPECT_EQ(v[2], 99u);
}

TEST(TokenSet, ToStringFormat) {
  EXPECT_EQ(TokenSet(8, {0, 3, 7}).to_string(), "{0,3,7}");
  EXPECT_EQ(TokenSet(8).to_string(), "{}");
}

TEST(TokenSet, EqualityRequiresSameUniverse) {
  EXPECT_FALSE(TokenSet(8) == TokenSet(9));
  EXPECT_TRUE(TokenSet(8) == TokenSet(8));
}

TEST(TokenSet, ZeroUniverseIsDegenerateButSafe) {
  TokenSet s(0);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.full());  // vacuous
  EXPECT_EQ(s.min_element(), std::nullopt);
}

// ---- Ownership on both sides of the inline/heap boundary (128 tokens) ----

/// Universes around the boundary: empty, one word, two words (the largest
/// held inline), and two heap-backed sizes.
constexpr std::size_t kUniverses[] = {0, 64, 128, 129, 300};

/// A set holding about half of its universe, always including the last
/// token, so every word is non-zero.
TokenSet half_full(std::size_t universe, std::uint64_t seed) {
  TokenSet s(universe);
  Rng rng(seed);
  for (TokenId t = 0; t < universe; ++t) {
    if (rng.below(2) == 0 || t + 1 == universe) s.insert(t);
  }
  return s;
}

void expect_moved_from(const TokenSet& s) {
  EXPECT_EQ(s.universe(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.words().empty());
  EXPECT_EQ(s, TokenSet());
}

TEST(TokenSet, CopyIsIndependentOfItsSource) {
  for (const std::size_t u : kUniverses) {
    const TokenSet original = half_full(u, u);
    TokenSet source = original;
    TokenSet copy(source);
    EXPECT_EQ(copy, original) << "universe " << u;
    if (u == 0) continue;
    copy.clear();
    EXPECT_EQ(source, original) << "universe " << u;
    source.erase(static_cast<TokenId>(u - 1));
    EXPECT_TRUE(copy.empty()) << "universe " << u;
  }
}

TEST(TokenSet, MoveTakesTheWordsAndEmptiesTheSource) {
  for (const std::size_t u : kUniverses) {
    const TokenSet original = half_full(u, u);
    TokenSet source = original;
    const TokenSet taken(std::move(source));
    EXPECT_EQ(taken, original) << "universe " << u;
    expect_moved_from(source);
    // A moved-from set is an ordinary empty set: it can be assigned to
    // and then used again.
    source = half_full(u, u + 1);
    EXPECT_EQ(source, half_full(u, u + 1)) << "universe " << u;
    source = taken;
    EXPECT_EQ(source, original) << "universe " << u;
  }
}

TEST(TokenSet, CopyAssignmentAcrossUniverses) {
  for (const std::size_t from : kUniverses) {
    for (const std::size_t to : kUniverses) {
      const TokenSet original = half_full(from, 7);
      const TokenSet source = original;
      TokenSet target = half_full(to, 8);
      target = source;
      EXPECT_EQ(target, original) << from << " onto " << to;
      EXPECT_EQ(source, original) << from << " onto " << to;
      EXPECT_EQ(target.count(), original.count());
      if (from > 0) {
        target.clear();
        EXPECT_EQ(source, original) << from << " onto " << to;
      }
    }
  }
}

TEST(TokenSet, MoveAssignmentAcrossUniverses) {
  for (const std::size_t from : kUniverses) {
    for (const std::size_t to : kUniverses) {
      const TokenSet original = half_full(from, 7);
      TokenSet source = original;
      TokenSet target = half_full(to, 8);
      target = std::move(source);
      EXPECT_EQ(target, original) << from << " onto " << to;
      expect_moved_from(source);
      // Move-assigning onto the moved-from set, and back again.
      source = std::move(target);
      EXPECT_EQ(source, original) << from << " onto " << to;
      expect_moved_from(target);
      target = source;
      EXPECT_EQ(target, original) << from << " onto " << to;
    }
  }
}

TEST(TokenSet, SelfAssignmentKeepsTheValue) {
  for (const std::size_t u : kUniverses) {
    const TokenSet original = half_full(u, 3);
    TokenSet s = original;
    const TokenSet& alias = s;
    s = alias;
    EXPECT_EQ(s, original) << "universe " << u;
    TokenSet& same = s;
    s = std::move(same);
    EXPECT_EQ(s, original) << "universe " << u;
  }
}

// Property sweep: set-algebra identities over random sets.
class TokenSetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TokenSetProperty, AlgebraIdentities) {
  Rng rng(GetParam());
  const std::size_t universe = 1 + rng.below(300);
  auto random_set = [&] {
    TokenSet s(universe);
    const std::size_t fill = rng.below(universe + 1);
    for (std::size_t i = 0; i < fill; ++i) {
      s.insert(static_cast<TokenId>(rng.below(universe)));
    }
    return s;
  };
  const TokenSet a = random_set();
  const TokenSet b = random_set();

  // |A ∪ B| = |A| + |B \ A|
  TokenSet u = a;
  const std::size_t added = u.unite(b);
  TokenSet b_minus_a = b;
  b_minus_a.subtract(a);
  EXPECT_EQ(added, b_minus_a.count());
  EXPECT_EQ(u.count(), a.count() + b_minus_a.count());

  // A \ B and A ∩ B partition A.
  TokenSet diff = a;
  diff.subtract(b);
  TokenSet inter = a;
  inter.intersect(b);
  EXPECT_EQ(diff.count() + inter.count(), a.count());

  // A △ B = (A ∪ B) \ (A ∩ B), and toggling B again restores A.
  TokenSet sym = a;
  sym.toggle(b);
  TokenSet union_minus_inter = u;
  union_minus_inter.subtract(inter);
  EXPECT_EQ(sym, union_minus_inter);
  EXPECT_EQ(sym.count(), union_minus_inter.count());
  sym.toggle(b);
  EXPECT_EQ(sym, a);
  EXPECT_EQ(sym.count(), a.count());

  // min/max of difference agree with the vector view.
  TokenSet empty(universe);
  const auto vec = a.to_vector();
  if (vec.empty()) {
    EXPECT_EQ(a.min_diff(empty), std::nullopt);
  } else {
    EXPECT_EQ(a.min_diff(empty), std::optional<TokenId>(vec.front()));
    EXPECT_EQ(a.max_diff(empty), std::optional<TokenId>(vec.back()));
  }

  // nth walks the same ascending order as the vector view.
  for (std::size_t i = 0; i < vec.size(); ++i) {
    ASSERT_EQ(a.nth(i), std::optional<TokenId>(vec[i])) << "rank " << i;
  }
  EXPECT_EQ(a.nth(vec.size()), std::nullopt);

  // subset relations.
  EXPECT_TRUE(inter.subset_of(a));
  EXPECT_TRUE(inter.subset_of(b));
  EXPECT_TRUE(a.subset_of(u));
}

TEST_P(TokenSetProperty, CachedCountMatchesRecomputedPopcount) {
  // count()/full()/empty() are served from a cached cardinality; this
  // drives arbitrary interleavings of every mutator and checks the cache
  // against a popcount recomputed from the raw words after each step.
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 3);
  const std::size_t universe = 1 + rng.below(300);

  const auto recount = [](const TokenSet& s) {
    std::size_t n = 0;
    for (std::uint64_t w : s.words()) {
      n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  };
  const auto check = [&](const TokenSet& s) {
    const std::size_t truth = recount(s);
    ASSERT_EQ(s.count(), truth);
    ASSERT_EQ(s.empty(), truth == 0);
    ASSERT_EQ(s.full(), truth == s.universe());
  };

  const auto random_set = [&] {
    TokenSet s(universe);
    const std::size_t fill = rng.below(universe + 1);
    for (std::size_t i = 0; i < fill; ++i) {
      s.insert(static_cast<TokenId>(rng.below(universe)));
    }
    return s;
  };

  TokenSet s = random_set();
  check(s);
  for (int step = 0; step < 300; ++step) {
    switch (rng.below(7)) {
      case 0:
        s.insert(static_cast<TokenId>(rng.below(universe)));
        break;
      case 1:
        s.erase(static_cast<TokenId>(rng.below(universe)));
        break;
      case 2:
        s.clear();
        break;
      case 3:
        s.unite(random_set());
        break;
      case 4:
        s.subtract(random_set());
        break;
      case 5:
        s.intersect(random_set());
        break;
      case 6:
        s.toggle(random_set());
        break;
    }
    check(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenSetProperty,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace hinet
