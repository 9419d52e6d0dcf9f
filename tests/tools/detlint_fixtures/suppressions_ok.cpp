// Fixture: every banned pattern below carries a well-formed suppression, so
// the linter must report nothing.  Lint-test data only — never compiled.
#include <cstdlib>

long fixture_suppressed() {
  // detlint-allow(banned-random): fixture exercises preceding-line suppression
  const int a = std::rand();
  const int b = std::rand();  // detlint-allow(banned-random): same-line form
  return a + b;
}

// detlint: hot-path-begin
inline void fixture_suppressed_hot(int** slot) {
  // detlint-allow(hot-path-alloc): fixture exercises hot-region suppression
  *slot = new int(1);
}
// detlint: hot-path-end
