#include "util/rng.hpp"

#ifdef _MSC_VER
#include <intrin.h>
#endif

namespace hinet {

std::uint64_t Rng::below(std::uint64_t bound) {
  HINET_REQUIRE(bound > 0, "below() with zero bound");
  // Lemire's nearly-divisionless method.  __int128 is a GCC/Clang extension,
  // so the typedef needs __extension__ to stay -Wpedantic-clean.
  __extension__ typedef unsigned __int128 u128;
  std::uint64_t x = (*this)();
  u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<u128>(x) * static_cast<u128>(bound);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  HINET_REQUIRE(lo <= hi, "uniform_int() with inverted range");
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform_real(double lo, double hi) {
  HINET_REQUIRE(lo <= hi, "uniform_real() with inverted range");
  return lo + (hi - lo) * uniform01();
}

std::vector<std::size_t> Rng::sample(std::size_t population,
                                     std::size_t count) {
  HINET_REQUIRE(count <= population, "sample() larger than population");
  // Partial Fisher-Yates over an index vector.  For the network sizes used
  // here (<= a few thousand nodes) the O(population) setup is negligible.
  std::vector<std::size_t> idx(population);
  for (std::size_t i = 0; i < population; ++i) idx[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + below(population - i);
    using std::swap;
    swap(idx[i], idx[j]);
  }
  idx.resize(count);
  return idx;
}

Rng Rng::fork() {
  Rng child(0);
  SplitMix64 sm((*this)());
  // Re-derive all four state words through SplitMix so the child stream is
  // decorrelated from the parent's future output.
  child.s_[0] = sm.next();
  child.s_[1] = sm.next();
  child.s_[2] = sm.next();
  child.s_[3] = sm.next();
  return child;
}

}  // namespace hinet
