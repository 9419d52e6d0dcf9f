// Deterministic, seed-stable pseudo-random number generation.
//
// Every stochastic component of the simulator draws from Xoshiro256**,
// seeded through SplitMix64.  We do not use std::mt19937 because its
// distributions are not guaranteed to be reproducible across standard
// library implementations; all distribution logic here is hand-rolled so a
// (seed, parameters) pair pins down an experiment bit-for-bit on any
// platform.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/require.hpp"

namespace hinet {

/// SplitMix64: used only to expand a single 64-bit seed into generator
/// state.  Reference: Sebastiano Vigna, public-domain implementation.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the workhorse generator.  Satisfies
/// std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via SplitMix64 so that any 64-bit seed
  /// (including 0) yields a well-mixed state.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& word : s_) word = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  Uses Lemire's multiply-shift rejection
  /// method to avoid modulo bias.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1): 53 high-quality bits, full double precision.
  double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  /// Inline: generators draw one per node per phase.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const std::size_t j = below(i + 1);
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// Chooses `count` distinct values from [0, population) without
  /// replacement, in random order.  Requires count <= population.
  std::vector<std::size_t> sample(std::size_t population, std::size_t count);

  /// Picks a uniformly random element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    HINET_REQUIRE(!v.empty(), "pick() from empty vector");
    return v[static_cast<std::size_t>(below(v.size()))];
  }

  /// Derives an independent child generator; used to give each subsystem
  /// (topology, clustering, churn, ...) its own stream so adding draws to
  /// one subsystem does not perturb another.
  Rng fork();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace hinet
