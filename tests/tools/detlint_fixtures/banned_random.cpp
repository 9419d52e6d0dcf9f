// Fixture: every statement below must trip banned-random.  This file is
// lint-test data only — it is never compiled or linked.
#include <cstdlib>
#include <random>

unsigned fixture_bad_rand() {
  std::srand(42);
  const int x = std::rand();
  std::random_device rd;
  std::mt19937 gen(rd());
  std::mt19937_64 gen64(static_cast<unsigned>(x));
  std::default_random_engine eng;
  const int y = std::rand() + std::rand();  // two calls, one finding
  return static_cast<unsigned>(gen() + gen64() + eng() + y);
}
