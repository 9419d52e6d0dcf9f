// TokenSet: a fixed-universe dynamic bitset specialised for the k-token
// dissemination problem.
//
// The paper's algorithms manipulate three per-node sets (TA, TS, TR) over a
// universe of k comparable token ids.  All hot-path operations the
// pseudocode needs — membership, union, set difference, and min/max of a
// difference — are O(k/64) word operations here.  The cardinality is
// cached and maintained by every mutator, so count()/empty()/full() are
// O(1) — the engine's incremental completion tracking polls full() once
// per node per round.
//
// A universe of at most 128 tokens keeps its two words inside the 24-byte
// object, so putting a set in a packet — what every transmission does —
// allocates nothing; only a larger universe holds its words in a heap
// block.  The universe and the cached count are 32-bit, like token ids.
// The per-packet operations (contains, insert, unite, words) are defined in
// this header so they inline into each algorithm's transmit/receive.
//
// Every bit count goes through bit_count(), which is one POPCNT
// instruction on x86-64 even where the build targets baseline x86-64 (whose
// std::popcount is a libgcc call).  x86-64 hosts therefore need POPCNT:
// Intel Nehalem, AMD Barcelona and later.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/require.hpp"

namespace hinet {

/// Identifier of a token.  Tokens are drawn from the universe [0, k).
using TokenId = std::uint32_t;

class TokenSet {
 public:
  /// Bits per word of the membership bitmap: bit b of word i is token
  /// i * kBits + b (see words()).
  static constexpr std::size_t kBits = 64;

  /// Creates an empty set over a universe of `universe` token ids, at most
  /// 2^32 - 1 of them.
  explicit TokenSet(std::size_t universe = 0) {
    HINET_REQUIRE(universe <= std::numeric_limits<std::uint32_t>::max(),
                  "token universe exceeds 32-bit token ids");
    universe_ = static_cast<std::uint32_t>(universe);
    if (!is_inline()) allocate(nullptr);
  }

  /// Creates a set containing exactly the given tokens.
  TokenSet(std::size_t universe, std::initializer_list<TokenId> tokens)
      : TokenSet(universe) {
    for (TokenId t : tokens) insert(t);
  }

  TokenSet(const TokenSet& other)
      : universe_(other.universe_), count_(other.count_) {
    if (is_inline()) {
      words_ = other.words_;
    } else {
      allocate(other.words_.heap);
    }
  }

  /// Takes `other`'s words (its heap block, if any); `other` is left empty
  /// over a universe of 0.
  TokenSet(TokenSet&& other) noexcept
      : universe_(other.universe_),
        count_(other.count_),
        words_(other.words_) {
    other.forget();
  }

  TokenSet& operator=(const TokenSet& other) {
    return *this = TokenSet(other);
  }

  TokenSet& operator=(TokenSet&& other) noexcept {
    if (this != &other) {
      release();
      universe_ = other.universe_;
      count_ = other.count_;
      words_ = other.words_;
      other.forget();
    }
    return *this;
  }

  ~TokenSet() { release(); }

  /// The universe size k this set was created with.
  std::size_t universe() const { return universe_; }

  /// Number of tokens currently in the set.  O(1): the cardinality is
  /// cached and kept in sync by every mutating operation.
  std::size_t count() const { return count_; }

  bool empty() const { return count_ == 0; }

  /// True when the set contains every token of the universe.
  bool full() const { return count_ == universe_; }

  // detlint: hot-path-begin — the per-packet operations: every transmit
  // copies a set into its packet and every receive unites one in, so these
  // work on the words in place and never allocate.
  bool contains(TokenId t) const {
    check_token(t);
    return (data()[t / kBits] >> (t % kBits)) & 1ULL;
  }

  /// Inserts a token; returns true if it was newly added.
  bool insert(TokenId t) {
    check_token(t);
    std::uint64_t& w = data()[t / kBits];
    const std::uint64_t mask = 1ULL << (t % kBits);
    const bool added = (w & mask) == 0;
    w |= mask;
    count_ += added ? 1 : 0;
    return added;
  }

  /// Removes all tokens (the pseudocode's "TS <- Ø").
  void clear() {
    std::fill_n(data(), word_count(), std::uint64_t{0});
    count_ = 0;
  }

  /// In-place union: *this <- *this ∪ other.  Returns the number of tokens
  /// newly added, which the metrics layer uses to detect progress.
  std::size_t unite(const TokenSet& other) {
    HINET_REQUIRE(universe_ == other.universe_, "universe mismatch in unite");
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    const std::size_t n = word_count();
    std::uint32_t added = 0;
    for (std::size_t i = 0; i < n; ++i) {
      added += bit_count(o[i] & ~w[i]);
      w[i] |= o[i];
    }
    count_ += added;
    return added;
  }

  /// Raw 64-bit words of the membership bitmap (low bit of word 0 is
  /// token 0).
  std::span<const std::uint64_t> words() const {
    return {data(), word_count()};
  }
  // detlint: hot-path-end

  /// Removes a token; returns true if it was present.
  bool erase(TokenId t);

  /// In-place difference: *this <- *this \ other.
  void subtract(const TokenSet& other);

  /// In-place intersection.
  void intersect(const TokenSet& other);

  /// In-place symmetric difference: *this <- *this △ other.  Read as
  /// GF(2)^k coefficient vectors, this is vector addition (network
  /// coding's row operation).
  void toggle(const TokenSet& other);

  /// True when every token of *this is in `other`.
  bool subset_of(const TokenSet& other) const;

  /// Smallest token in *this \ other, or nullopt when the difference is
  /// empty.  Implements Algorithm 1's head rule "t <- min(TA \ TS)".
  std::optional<TokenId> min_diff(const TokenSet& other) const;

  /// Largest token in *this \ other.  Implements the member rule
  /// "t <- max(TA \ (TS ∪ TR))" (the union is passed pre-computed or via
  /// the two-argument overload below).
  std::optional<TokenId> max_diff(const TokenSet& other) const;

  /// Largest token in *this \ (a ∪ b) without materialising the union.
  std::optional<TokenId> max_diff(const TokenSet& a, const TokenSet& b) const;

  /// Smallest token present, or nullopt if empty.
  std::optional<TokenId> min_element() const;

  /// The token of rank `rank` (0-based, ascending), or nullopt when
  /// rank >= count().
  std::optional<TokenId> nth(std::size_t rank) const;

  /// All tokens in increasing order (for reporting / tests; not hot path).
  std::vector<TokenId> to_vector() const;

  /// Compact textual form, e.g. "{0,3,7}" (for logs and test failures).
  std::string to_string() const;

  friend bool operator==(const TokenSet& a, const TokenSet& b);
  friend bool operator!=(const TokenSet& a, const TokenSet& b) {
    return !(a == b);
  }

 private:
  static constexpr std::size_t kInlineWords = 2;

  /// The words of a universe of at most kInlineWords * kBits tokens live
  /// in `local` (words past the universe stay zero); a larger universe
  /// owns the block `heap` points to.  universe_ alone says which member
  /// is active.
  union Words {
    std::uint64_t local[kInlineWords];
    std::uint64_t* heap;
  };

  bool is_inline() const { return universe_ <= kInlineWords * kBits; }
  std::size_t word_count() const { return (universe_ + kBits - 1) / kBits; }
  std::uint64_t* data() { return is_inline() ? words_.local : words_.heap; }
  const std::uint64_t* data() const {
    return is_inline() ? words_.local : words_.heap;
  }

  void check_token(TokenId t) const {
    HINET_REQUIRE(t < universe_, "token id outside universe");
  }

  /// Number of set bits in `w`.  Where the build's target lacks POPCNT,
  /// std::popcount is a libgcc call, so on x86-64 the instruction is
  /// issued directly.
  static std::uint32_t bit_count(std::uint64_t w) {
#if defined(__x86_64__) && !defined(__POPCNT__)
    std::uint64_t n = 0;
    __asm__("popcntq %1, %0" : "=r"(n) : "rm"(w));
    return static_cast<std::uint32_t>(n);
#else
    return static_cast<std::uint32_t>(std::popcount(w));
#endif
  }

  /// Points words_.heap at a new block of word_count() words, copied from
  /// `src`, or zeroed when `src` is null.
  void allocate(const std::uint64_t* src);

  void release() noexcept {
    if (!is_inline()) delete[] words_.heap;
  }

  /// Leaves the set empty over a universe of 0 without freeing anything:
  /// the state of a moved-from set.
  void forget() noexcept {
    universe_ = 0;
    count_ = 0;
    words_ = Words{};
  }

  std::uint32_t universe_ = 0;
  std::uint32_t count_ = 0;  ///< cached popcount of the words
  Words words_{};
};

static_assert(sizeof(TokenSet) <= 24,
              "a TokenSet must stay small enough to copy into every packet");

}  // namespace hinet
