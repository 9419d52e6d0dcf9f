// Engine delivery hot-path benchmark.
//
// Measures the per-round delivery machinery itself (send step, channel,
// inbox construction, receive step, completion tracking) with the most
// delivery-heavy workload in the repo: KLO full-broadcast flooding on a
// (1, L)-HiNet trace, where every node transmits its whole token set every
// round.  Trace generation and process construction happen outside the
// timed region, so rounds/sec and delivered-tokens/sec reflect Engine::run
// alone.
//
// Two trace modes feed the same workload:
//   - materialized: the whole GraphSequence is resident (the historical
//     path, memory O(n · Γ)) — kept for the small sizes so throughput
//     stays comparable with the pre-streaming baseline;
//   - streaming: rounds are synthesized on demand through make_hinet_stream
//     with a 2-round ring, memory O(n · W) — the only mode that reaches
//     n = 10^4 and 10^5 (a materialized trace at n = 10^5 × 400 rounds
//     would need several GiB; CI pins this with an address-space rlimit).
// The memory columns report the process RSS sampled right after the timed
// run with the spec still alive (resident, attributable to the trace +
// engine) and the process-lifetime peak (monotone; points run
// smallest-first so each reading is attributable).
//
// Streaming points also split the run by layer: "stream build" times
// make_hinet_stream; "synth" times a separate walk over a fresh stream
// that asks for every round's graph_at and hierarchy_at, i.e. trace
// synthesis alone; "engine body" is the streamed Engine::run time minus
// synth, and "synth %" is synth's share of the run.  Each is the best of
// the timed repetitions.
//
// Results go to stdout and, with --out, to a BENCH_*.json file;
// BENCH_engine_hotpath.json keeps the streaming-vs-materialized comparison
// on record.
#include "common.hpp"

#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <thread>

#include "baseline/klo.hpp"
#include "core/hinet_generator.hpp"
#include "sim/engine.hpp"

using namespace hinet;

namespace {

struct Point {
  std::size_t nodes = 0;
  std::size_t rounds = 0;
  bool streaming = false;
  double seconds = 0.0;             ///< best-of-reps wall time of Engine::run
  double stream_build_seconds = 0.0;  ///< best make_hinet_stream (streaming)
  double synth_seconds = 0.0;  ///< best synthesis-only walk (streaming)
  double rounds_per_second = 0.0;
  std::size_t delivered_tokens = 0; ///< Σ per_node_rx_tokens of one run
  double delivered_tokens_per_second = 0.0;
  std::size_t tokens_sent = 0;
  std::size_t resident_bytes = 0;   ///< RSS after the run, spec alive
  std::size_t peak_rss_bytes = 0;   ///< process high-water mark after point
  double bytes_per_node = 0.0;      ///< resident_bytes / nodes
};

HiNetConfig flood_generator(std::size_t nodes, std::size_t rounds,
                            std::size_t k, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.nodes = nodes;
  cfg.heads = std::max<std::size_t>(2, nodes / 8);
  cfg.k = k;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  HiNetConfig gen = scenario_generator(Scenario::kKloOne, cfg, seed);
  gen.phases = rounds;  // shorten the trace to the measured horizon
  return gen;
}

SimulationSpec build_spec(std::unique_ptr<DynamicNetwork> network,
                          std::size_t nodes, std::size_t rounds, std::size_t k,
                          std::uint64_t seed) {
  Rng assign_rng(seed ^ 0xa5a5a5a5a5a5a5a5ULL);
  const auto initial =
      assign_tokens(nodes, k, AssignmentMode::kDistinctRandom, assign_rng);

  KloFloodParams p;
  p.k = k;
  p.rounds = rounds;

  SimulationSpec spec;
  spec.network = std::move(network);
  spec.processes = make_klo_flood_processes(initial, p);
  spec.engine.max_rounds = rounds;
  spec.engine.stop_when_complete = false;
  return spec;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Trace synthesis alone: a fresh stream walked in round order, asking for
/// each round's graph and view.
double time_synthesis(const HiNetConfig& gen, std::size_t rounds) {
  HiNetStream stream = make_hinet_stream(gen);
  const auto t0 = std::chrono::steady_clock::now();
  for (Round r = 0; r < rounds; ++r) {
    (void)stream.topology->graph_at(r);
    (void)stream.hierarchy->hierarchy_at(r);
  }
  return seconds_since(t0);
}

void keep_best(double& best, double seconds) {
  if (best < 0.0 || seconds < best) best = seconds;
}

Point measure(std::size_t nodes, std::size_t rounds, std::size_t k,
              std::uint64_t seed, std::size_t reps, bool streaming) {
  Point pt;
  pt.nodes = nodes;
  pt.rounds = rounds;
  pt.streaming = streaming;
  pt.seconds = -1.0;
  pt.stream_build_seconds = -1.0;
  pt.synth_seconds = -1.0;
  const HiNetConfig gen = flood_generator(nodes, rounds, k, seed);
  for (std::size_t rep = 0; rep < reps + 1; ++rep) {
    {
      const auto b0 = std::chrono::steady_clock::now();
      std::unique_ptr<DynamicNetwork> network;
      if (streaming) {
        network = make_hinet_stream(gen).topology;
      } else {
        HiNetTrace trace = make_hinet_trace(gen);
        network =
            std::make_unique<GraphSequence>(std::move(trace.ctvg.topology()));
      }
      const double build = seconds_since(b0);
      Engine engine(build_spec(std::move(network), nodes, rounds, k, seed));
      const auto t0 = std::chrono::steady_clock::now();
      const SimMetrics m = engine.run();
      const double secs = seconds_since(t0);
      // Sample memory while the engine (and thus the trace) is still
      // alive, so the reading reflects this configuration's working set.
      pt.resident_bytes = bench::current_rss_bytes();
      pt.peak_rss_bytes = bench::peak_rss_bytes();
      if (rep == 0) continue;  // warm-up
      keep_best(pt.seconds, secs);
      if (streaming) keep_best(pt.stream_build_seconds, build);
      pt.delivered_tokens = std::accumulate(m.per_node_rx_tokens.begin(),
                                            m.per_node_rx_tokens.end(),
                                            std::size_t{0});
      pt.tokens_sent = m.tokens_sent;
      HINET_ENSURE(m.rounds_executed == rounds, "bench ran short");
    }
    // After the engine is gone, so the walk's stream adds nothing to the
    // run's memory readings.
    if (streaming) keep_best(pt.synth_seconds, time_synthesis(gen, rounds));
  }
  pt.rounds_per_second = static_cast<double>(rounds) / pt.seconds;
  pt.delivered_tokens_per_second =
      static_cast<double>(pt.delivered_tokens) / pt.seconds;
  pt.bytes_per_node = static_cast<double>(pt.resident_bytes) /
                      static_cast<double>(nodes);
  return pt;
}

/// A layer column's cell: the value on streaming points, "-" on
/// materialized ones, whose trace is built before the timed run.
std::string layer_cell(const Point& p, double v) {
  if (!p.streaming) return "-";
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto reps =
      args.get_uint("reps", 3, "timed repetitions per size (best is kept)");
  const auto seed = args.get_uint("seed", 1, "trace seed");
  const auto k = args.get_uint("k", 16, "token universe size");
  const auto only_nodes = args.get_uint(
      "nodes", 0, "measure a single network size (0 = the full sweep)");
  const auto only_rounds = args.get_uint(
      "rounds", 0, "rounds for --nodes (0 = min(nodes-1, 150))");
  const std::string mode = args.get_string(
      "mode", "both",
      "trace mode: both | materialized | streaming (with --nodes the "
      "default is streaming)");
  const std::string out_path = args.get_string(
      "out", "", "write BENCH json to this path (empty = stdout only)");

  return bench::run_main(args, "engine delivery hot-path throughput", [&] {
    struct Size {
      std::size_t nodes;
      std::size_t rounds;
      bool streaming;
    };
    const bool want_mat = mode == "both" || mode == "materialized";
    const bool want_stream = mode == "both" || mode == "streaming";
    if (!want_mat && !want_stream) {
      std::cerr << "unknown --mode: " << mode
                << " (expected both | materialized | streaming)\n";
      std::exit(2);
    }
    std::vector<Size> sizes;
    if (only_nodes != 0) {
      const std::size_t r =
          only_rounds != 0
              ? only_rounds
              : std::min(only_nodes - 1, static_cast<std::size_t>(150));
      // A single explicit size defaults to the streaming path (the mode
      // that scales); ask for --mode=materialized to compare.
      sizes.push_back({only_nodes, r, mode != "materialized"});
    } else {
      // Smallest-first so the monotone peak-RSS column stays attributable;
      // the large-n points exist only on the streaming path.
      if (want_mat) {
        sizes.push_back({100, 99, false});
        sizes.push_back({400, 150, false});
        sizes.push_back({1000, 120, false});
      }
      if (want_stream) {
        sizes.push_back({1000, 120, true});  // cross-mode comparison point
        sizes.push_back({10000, 100, true});
        sizes.push_back({100000, 50, true});
      }
    }

    const unsigned hw = std::thread::hardware_concurrency();
    std::cout << "=== Engine delivery hot path (KLO flood on (1, L)-HiNet, "
                 "k=" << k << ", seed=" << seed << ") ===\n"
              << "commit " << HINET_GIT_COMMIT << ", " << HINET_BUILD_TYPE
              << ", hardware_concurrency=" << hw << ", "
              << bench::cpu_model() << "\n\n";
    TextTable t({"n", "rounds", "mode", "wall s", "rounds/s",
                 "delivered tok/s", "stream build s", "synth s",
                 "engine body s", "synth %", "rss MiB", "B/node"});
    std::vector<Point> points;
    for (const Size& s : sizes) {
      const Point p = measure(s.nodes, s.rounds, k, seed, reps, s.streaming);
      const auto layer = [&](double v) { return layer_cell(p, v); };
      t.add(p.nodes, p.rounds, p.streaming ? "streaming" : "materialized",
            p.seconds, p.rounds_per_second, p.delivered_tokens_per_second,
            layer(p.stream_build_seconds), layer(p.synth_seconds),
            layer(p.seconds - p.synth_seconds),
            layer(100.0 * p.synth_seconds / p.seconds),
            static_cast<double>(p.resident_bytes) / (1024.0 * 1024.0),
            p.bytes_per_node);
      points.push_back(p);
    }
    std::cout << t;
    std::cout << "\nmemory: rss MiB samples the process RSS right after the "
                 "timed run with the trace\nstill alive; on the streaming "
                 "path it stays O(n * window) regardless of rounds,\non the "
                 "materialized path it grows with n * rounds.\n";

    if (!out_path.empty()) {
      std::ofstream f(out_path);
      f << "{\n";
      f << "  \"bench\": \"engine_hotpath\",\n";
      f << "  \"workload\": \"klo_flood_on_hinet_one_trace\",\n";
      f << "  \"k\": " << k << ",\n";
      f << "  \"seed\": " << seed << ",\n";
      f << "  \"reps\": " << reps << ",\n";
      f << "  \"commit\": \"" << HINET_GIT_COMMIT << "\",\n";
      f << "  \"build_type\": \"" << HINET_BUILD_TYPE << "\",\n";
      f << "  \"hardware_concurrency\": " << hw << ",\n";
      f << "  \"cpu_model\": \"" << bench::cpu_model() << "\",\n";
      f << "  \"notes\": \"resident_bytes = process RSS sampled after the "
           "timed run with the spec alive; peak_rss_bytes = process "
           "high-water mark (monotone, points run smallest-first). "
           "Streaming points hold only a 2-round ring, so resident_bytes "
           "is O(n) while materialized grows O(n*rounds). Streaming points "
           "split the run: stream_build_seconds = make_hinet_stream, "
           "synth_seconds = a walk over a fresh stream calling graph_at and "
           "hierarchy_at per round, engine_body_seconds = seconds - "
           "synth_seconds.\",\n";
      f << "  \"points\": [\n";
      for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        f << "    {\"nodes\": " << p.nodes << ", \"rounds\": " << p.rounds
          << ", \"mode\": \"" << (p.streaming ? "streaming" : "materialized")
          << "\", \"seconds\": " << p.seconds;
        if (p.streaming) {
          f << ", \"stream_build_seconds\": " << p.stream_build_seconds
            << ", \"synth_seconds\": " << p.synth_seconds
            << ", \"engine_body_seconds\": " << p.seconds - p.synth_seconds
            << ", \"synth_share\": " << p.synth_seconds / p.seconds;
        }
        f
          << ", \"rounds_per_second\": " << p.rounds_per_second
          << ", \"delivered_tokens_per_second\": "
          << p.delivered_tokens_per_second
          << ", \"tokens_sent\": " << p.tokens_sent
          << ", \"resident_bytes\": " << p.resident_bytes
          << ", \"peak_rss_bytes\": " << p.peak_rss_bytes
          << ", \"bytes_per_node\": " << p.bytes_per_node << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
      }
      f << "  ]\n}\n";
      std::cout << "\nJSON written to " << out_path << '\n';
    }
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
