// Fixture: every statement below must trip banned-time, the macro body
// too.  Lint-test data only — never compiled.
#include <chrono>
#include <ctime>

long fixture_bad_time() {
  const auto mono = std::chrono::steady_clock::now();
  const auto wall = std::chrono::system_clock::now();
  const auto fine = std::chrono::high_resolution_clock::now();
  const std::time_t stamp = std::time(nullptr);
  return static_cast<long>(stamp) + mono.time_since_epoch().count() +
         wall.time_since_epoch().count() + fine.time_since_epoch().count();
}

#define FIXTURE_NOW() std::chrono::steady_clock::now()
