// Regenerates Fig. 3: "An example illustration of Algorithm 1" — the
// token's journey member -> head -> gateway -> next head -> members,
// printed round by round from an actual Algorithm 1 execution.
#include "common.hpp"

#include "core/alg1.hpp"
#include "core/ctvg.hpp"
#include "sim/trace.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  return bench::run_main(args, "Fig. 3 — Algorithm 1 walkthrough", [&] {
    std::cout << "=== Fig. 3: An example illustration of Algorithm 1 ===\n\n";
    // The Fig. 3 scenario: node u (member) wants to disseminate token t.
    // Topology: two clusters bridged by a gateway.
    //   cluster 0: head 0, members 1 (=u), 2; gateway 3
    //   cluster 5: head 5, members 4, 6
    //   backbone: 0 - 3 - 5   (L = 2)
    const std::size_t n = 7;
    Graph g(n, {{0, 1}, {0, 2}, {0, 3}, {3, 5}, {4, 5}, {5, 6}});
    HierarchyView h(n);
    h.set_head(0);
    h.set_head(5);
    h.set_member(1, 0);
    h.set_member(2, 0);
    h.set_member(3, 0, /*gateway=*/true);
    h.set_member(4, 5);
    h.set_member(6, 5);

    const std::size_t t_len = 6, phases = 2, k = 1;
    std::vector<Graph> graphs(t_len * phases, g);
    std::vector<HierarchyView> views(t_len * phases, h);
    Ctvg world(GraphSequence(std::move(graphs)),
               HierarchySequence(std::move(views)));

    std::cout << "Topology: head 0 {members 1, 2; gateway 3} -- gateway 3 "
                 "-- head 5 {members 4, 6}\n";
    std::cout << "Node u = 1 holds the only token t = 0.\n\n";

    std::vector<TokenSet> init(n, TokenSet(k));
    init[1].insert(0);
    Alg1Params params;
    params.k = k;
    params.phase_length = t_len;
    params.phases = phases;
    Engine engine(world.topology(), &world.hierarchy(),
                  make_alg1_processes(init, params));
    TraceRecorder rec;
    engine.set_observer(rec.observer());
    const SimMetrics m = engine.run(
        {.max_rounds = t_len * phases, .stop_when_complete = false});

    std::cout << rec.render();
    std::cout << "\n(send t to cluster head; head broadcasts; gateway "
                 "relays; next head broadcasts)\n";
    std::cout << "\nResult: " << m.to_string() << '\n';
    std::cout << "All nodes received the token: "
              << (m.all_delivered ? "yes" : "NO") << '\n';

    // Knowledge table at the end.
    TextTable kt({"node", "role", "TA"});
    for (NodeId v = 0; v < n; ++v) {
      kt.add(v, node_role_name(h.role(v)),
             engine.process(v).knowledge().to_string());
    }
    std::cout << '\n' << kt;
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
