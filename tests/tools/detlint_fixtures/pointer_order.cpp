// Fixture: pointer-keyed ordering in each statement below must trip
// pointer-order.  Lint-test data only — never compiled.
#include <cstdint>
#include <functional>
#include <map>
#include <set>

struct Node {
  int id;
};

std::uintptr_t fixture_pointer_order(Node* a, Node* b) {
  std::set<Node*> by_address{a, b};
  std::map<Node*, int> ranks{{a, 0}};
  const bool before = std::less<Node*>{}(a, b);
  const auto addr = reinterpret_cast<std::uintptr_t>(a);
  const bool split = std::less<
      const Node*>{}(a, b);
  return addr + by_address.size() + static_cast<std::uintptr_t>(before) +
         static_cast<std::uintptr_t>(split) + ranks.size();
}
