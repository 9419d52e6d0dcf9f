#include "util/token_set.hpp"

#include <sstream>

namespace hinet {

void TokenSet::allocate(const std::uint64_t* src) {
  const std::size_t n = word_count();
  words_.heap = new std::uint64_t[n];
  if (src != nullptr) {
    std::copy_n(src, n, words_.heap);
  } else {
    std::fill_n(words_.heap, n, std::uint64_t{0});
  }
}

// detlint: hot-path-begin — the set algebra below runs in the algorithms'
// transmit/receive steps; it works on the words in place (bit_count loops)
// and must stay allocation free.
bool TokenSet::erase(TokenId t) {
  check_token(t);
  std::uint64_t& w = data()[t / kBits];
  const std::uint64_t mask = 1ULL << (t % kBits);
  const bool present = (w & mask) != 0;
  w &= ~mask;
  count_ -= present ? 1 : 0;
  return present;
}

void TokenSet::subtract(const TokenSet& other) {
  HINET_REQUIRE(universe_ == other.universe_, "universe mismatch in subtract");
  std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  std::uint32_t n = 0;
  for (std::size_t i = 0; i < word_count(); ++i) {
    w[i] &= ~o[i];
    n += bit_count(w[i]);
  }
  count_ = n;
}

void TokenSet::intersect(const TokenSet& other) {
  HINET_REQUIRE(universe_ == other.universe_,
                "universe mismatch in intersect");
  std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  std::uint32_t n = 0;
  for (std::size_t i = 0; i < word_count(); ++i) {
    w[i] &= o[i];
    n += bit_count(w[i]);
  }
  count_ = n;
}

void TokenSet::toggle(const TokenSet& other) {
  HINET_REQUIRE(universe_ == other.universe_, "universe mismatch in toggle");
  std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  std::uint32_t n = 0;
  for (std::size_t i = 0; i < word_count(); ++i) {
    w[i] ^= o[i];
    n += bit_count(w[i]);
  }
  count_ = n;
}

bool TokenSet::subset_of(const TokenSet& other) const {
  HINET_REQUIRE(universe_ == other.universe_, "universe mismatch in subset_of");
  const std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  for (std::size_t i = 0; i < word_count(); ++i) {
    if (w[i] & ~o[i]) return false;
  }
  return true;
}

std::optional<TokenId> TokenSet::min_diff(const TokenSet& other) const {
  HINET_REQUIRE(universe_ == other.universe_, "universe mismatch in min_diff");
  const std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  for (std::size_t i = 0; i < word_count(); ++i) {
    const std::uint64_t d = w[i] & ~o[i];
    if (d != 0) {
      return static_cast<TokenId>(i * kBits +
                                  static_cast<std::size_t>(std::countr_zero(d)));
    }
  }
  return std::nullopt;
}

std::optional<TokenId> TokenSet::max_diff(const TokenSet& other) const {
  HINET_REQUIRE(universe_ == other.universe_, "universe mismatch in max_diff");
  const std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  for (std::size_t i = word_count(); i-- > 0;) {
    const std::uint64_t d = w[i] & ~o[i];
    if (d != 0) {
      return static_cast<TokenId>(
          i * kBits + (kBits - 1 -
                       static_cast<std::size_t>(std::countl_zero(d))));
    }
  }
  return std::nullopt;
}

std::optional<TokenId> TokenSet::max_diff(const TokenSet& a,
                                          const TokenSet& b) const {
  HINET_REQUIRE(universe_ == a.universe_ && universe_ == b.universe_,
                "universe mismatch in max_diff");
  const std::uint64_t* w = data();
  const std::uint64_t* x = a.data();
  const std::uint64_t* y = b.data();
  for (std::size_t i = word_count(); i-- > 0;) {
    const std::uint64_t d = w[i] & ~(x[i] | y[i]);
    if (d != 0) {
      return static_cast<TokenId>(
          i * kBits + (kBits - 1 -
                       static_cast<std::size_t>(std::countl_zero(d))));
    }
  }
  return std::nullopt;
}

std::optional<TokenId> TokenSet::min_element() const {
  const std::uint64_t* w = data();
  for (std::size_t i = 0; i < word_count(); ++i) {
    if (w[i] != 0) {
      return static_cast<TokenId>(
          i * kBits + static_cast<std::size_t>(std::countr_zero(w[i])));
    }
  }
  return std::nullopt;
}

std::optional<TokenId> TokenSet::nth(std::size_t rank) const {
  const std::uint64_t* w = data();
  for (std::size_t i = 0; i < word_count(); ++i) {
    const std::size_t here = bit_count(w[i]);
    if (rank >= here) {
      rank -= here;
      continue;
    }
    std::uint64_t bits = w[i];
    for (; rank > 0; --rank) bits &= bits - 1;  // drop the lower set bits
    return static_cast<TokenId>(
        i * kBits + static_cast<std::size_t>(std::countr_zero(bits)));
  }
  return std::nullopt;
}
// detlint: hot-path-end

std::vector<TokenId> TokenSet::to_vector() const {
  std::vector<TokenId> out;
  out.reserve(count());
  const std::uint64_t* words = data();
  for (std::size_t i = 0; i < word_count(); ++i) {
    std::uint64_t w = words[i];
    while (w != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(w));
      out.push_back(static_cast<TokenId>(i * kBits + bit));
      w &= w - 1;
    }
  }
  return out;
}

std::string TokenSet::to_string() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (TokenId t : to_vector()) {
    if (!first) os << ',';
    os << t;
    first = false;
  }
  os << '}';
  return os.str();
}

bool operator==(const TokenSet& a, const TokenSet& b) {
  return a.universe_ == b.universe_ && std::ranges::equal(a.words(), b.words());
}

}  // namespace hinet
