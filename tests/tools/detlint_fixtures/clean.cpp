// Fixture: a well-behaved file — ordered iteration, no RNG or clock use, and
// a hot region that only reuses existing capacity; banned names appear only
// in literals and comments, directives' included.  The linter must report
// nothing.  Lint-test data only — never compiled.
#include <cstdint>
#include <vector>
#if !defined(__cplusplus)
#error "time() is banned"  // steady_clock
#endif

std::uint64_t fixture_clean(const std::vector<std::uint64_t>& xs) {
  std::uint64_t acc = 0;
  // detlint: hot-path-begin
  for (const std::uint64_t x : xs) {
    acc += x * 0x9e3779b97f4a7c15ULL;
  }
  // detlint: hot-path-end
  // Banned names inside literals must not fire: "std::rand() mt19937".
  const char* const doc = "steady_clock::now() and time() are banned";
  return acc + static_cast<std::uint64_t>(doc[0]);
}
