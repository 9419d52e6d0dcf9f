// Microbenchmarks (google-benchmark): substrate throughput — TokenSet
// algebra, graph generators, clustering, property checking, and end-to-end
// engine rounds.  These quantify simulator cost, not paper results.
#include <benchmark/benchmark.h>

#include "analysis/assignment.hpp"
#include "analysis/scenarios.hpp"
#include "baseline/network_coding.hpp"
#include "cluster/algorithms.hpp"
#include "cluster/dhop.hpp"
#include "cluster/routing.hpp"
#include "core/alg1.hpp"
#include "core/hinet_generator.hpp"
#include "core/hinet_properties.hpp"
#include "core/trace_io.hpp"
#include "graph/adversary.hpp"
#include "graph/dynamic.hpp"
#include "graph/generators.hpp"
#include "graph/interval.hpp"
#include "sim/engine.hpp"

namespace hinet {
namespace {

void BM_TokenSetUnite(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  TokenSet a(k), b(k);
  for (std::size_t i = 0; i < k / 2; ++i) {
    a.insert(static_cast<TokenId>(rng.below(k)));
    b.insert(static_cast<TokenId>(rng.below(k)));
  }
  for (auto _ : state) {
    TokenSet c = a;
    benchmark::DoNotOptimize(c.unite(b));
  }
}
BENCHMARK(BM_TokenSetUnite)->Arg(64)->Arg(512)->Arg(4096);

void BM_TokenSetMinDiff(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  TokenSet a(k), b(k);
  for (TokenId t = 0; t < k; t += 2) a.insert(t);
  for (TokenId t = 0; t < k / 2; t += 2) b.insert(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.min_diff(b));
  }
}
BENCHMARK(BM_TokenSetMinDiff)->Arg(64)->Arg(4096);

void BM_RandomTree(benchmark::State& state) {
  Rng rng(7);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::random_tree(n, rng));
  }
}
BENCHMARK(BM_RandomTree)->Arg(100)->Arg(1000);

void BM_GraphBfs(benchmark::State& state) {
  Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = gen::random_connected(n, 4 * n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.distances_from(0));
  }
}
BENCHMARK(BM_GraphBfs)->Arg(100)->Arg(1000);

void BM_LowestIdClustering(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = gen::random_connected(n, 4 * n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lowest_id_clustering(g));
  }
}
BENCHMARK(BM_LowestIdClustering)->Arg(100)->Arg(500);

void BM_WcdsClustering(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = gen::random_connected(n, 4 * n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wcds_clustering(g));
  }
}
BENCHMARK(BM_WcdsClustering)->Arg(100)->Arg(300);

void BM_HiNetTraceGeneration(benchmark::State& state) {
  HiNetConfig cfg;
  cfg.nodes = static_cast<std::size_t>(state.range(0));
  cfg.heads = cfg.nodes / 8;
  cfg.phase_length = 16;
  cfg.phases = 8;
  cfg.hop_l = 2;
  cfg.churn_edges = 4;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    cfg.seed = ++seed;
    benchmark::DoNotOptimize(make_hinet_trace(cfg));
  }
}
BENCHMARK(BM_HiNetTraceGeneration)->Arg(64)->Arg(256);

void BM_TIntervalCheck(benchmark::State& state) {
  AdversaryConfig cfg;
  cfg.nodes = 50;
  cfg.interval = 5;
  cfg.rounds = 50;
  cfg.churn_edges = 5;
  cfg.seed = 2;
  GraphSequence seq = make_t_interval_trace(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_t_interval_connected(seq, 50, 5));
  }
}
BENCHMARK(BM_TIntervalCheck);

void BM_HiNetPropertyCheck(benchmark::State& state) {
  HiNetConfig cfg;
  cfg.nodes = 64;
  cfg.heads = 8;
  cfg.phase_length = 10;
  cfg.phases = 6;
  cfg.hop_l = 2;
  cfg.seed = 3;
  HiNetTrace trace = make_hinet_trace(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        check_hinet(trace.ctvg, trace.ctvg.round_count(), 10, 2));
  }
}
BENCHMARK(BM_HiNetPropertyCheck);

void BM_EngineAlg1EndToEnd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ScenarioConfig cfg;
  cfg.nodes = n;
  cfg.heads = n / 8;
  cfg.k = 8;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_simulation(make_scenario(Scenario::kHiNetInterval, cfg, ++seed)
                           .spec));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineAlg1EndToEnd)->Arg(64)->Arg(128);

void BM_EngineKloFloodEndToEnd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ScenarioConfig cfg;
  cfg.nodes = n;
  cfg.heads = n / 8;
  cfg.k = 8;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_simulation(make_scenario(Scenario::kKloOne, cfg, ++seed).spec));
  }
}
BENCHMARK(BM_EngineKloFloodEndToEnd)->Arg(64)->Arg(128);

void BM_Gf2BasisInsert(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    Gf2Basis basis(k);
    while (!basis.full_rank()) {
      TokenSet vec(k);
      for (TokenId t = 0; t < k; ++t) {
        if ((rng() & 1) != 0) vec.insert(t);
      }
      basis.insert(std::move(vec));
    }
    benchmark::DoNotOptimize(basis.rank());
  }
}
BENCHMARK(BM_Gf2BasisInsert)->Arg(64)->Arg(256);

void BM_DynamicDiameter(benchmark::State& state) {
  AdversaryConfig cfg;
  cfg.nodes = 16;
  cfg.interval = 1;
  cfg.rounds = 24;
  cfg.churn_edges = 3;
  cfg.seed = 14;
  GraphSequence seq = make_t_interval_trace(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynamic_diameter(seq, 24));
  }
}
BENCHMARK(BM_DynamicDiameter);

void BM_DhopClustering(benchmark::State& state) {
  Rng rng(15);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = gen::random_connected(n, 3 * n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(maxmin_dhop_clustering(g, 2));
  }
}
BENCHMARK(BM_DhopClustering)->Arg(100)->Arg(300);

void BM_ClusterRouting(benchmark::State& state) {
  Rng rng(16);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = gen::random_connected(n, 3 * n, rng);
  const HierarchyView h = greedy_dhop_clustering(g, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_cluster_routing(h, g));
  }
}
BENCHMARK(BM_ClusterRouting)->Arg(100)->Arg(300);

void BM_TraceSerialization(benchmark::State& state) {
  HiNetConfig cfg;
  cfg.nodes = 64;
  cfg.heads = 8;
  cfg.phase_length = 10;
  cfg.phases = 6;
  cfg.hop_l = 2;
  cfg.seed = 17;
  HiNetTrace trace = make_hinet_trace(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serialize_ctvg(trace.ctvg));
  }
}
BENCHMARK(BM_TraceSerialization);

}  // namespace
}  // namespace hinet

BENCHMARK_MAIN();
