// Results-store overhead benchmark: what does "simulate once, serve many"
// actually buy, and what does durability cost?
//
// For each job size the same scenario job is measured three ways:
//
//   simulate   — executing the job's replicates (the cost a cache hit
//                avoids, and the floor a cold submit must pay anyway)
//   publish    — the two-stage commit protocol end to end (checksummed
//                segment write + rename + directory fsync, then the
//                index rewrite the same way)
//   serve      — a content-addressed load from a freshly opened store
//                (CRC-validated segment read, the `hinetd query` path)
//
// publish/serve are durability overhead; simulate/serve is the speedup a
// repeat submission gets.  The served result is asserted byte-identical
// (query digest) to the simulated one, so the bench doubles as a smoke
// check of the round trip.  Results go to stdout and, with --out, to
// BENCH_service_store.json.
#include "common.hpp"

#include <chrono>
#include <filesystem>

#include "service/service.hpp"

using namespace hinet;

namespace {

struct Point {
  std::size_t nodes = 0;
  std::size_t reps = 0;
  std::size_t segment_bytes = 0;
  double simulate_seconds = 0.0;  ///< best-of-reps replicate execution
  double publish_ms = 0.0;        ///< best-of-reps staged commit
  double serve_ms = 0.0;          ///< best-of-reps open+load+digest
  double speedup = 0.0;           ///< simulate_seconds / serve_seconds
};

ScenarioConfig size_config(std::size_t nodes) {
  ScenarioConfig cfg;
  cfg.nodes = nodes;
  cfg.heads = std::max<std::size_t>(4, nodes / 5);
  cfg.k = 8;
  cfg.alpha = 3;
  cfg.hop_l = 2;
  return cfg;
}

double seconds_since(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Point measure(std::size_t nodes, std::uint64_t seed, std::size_t job_reps,
              std::size_t bench_reps) {
  JobSpec spec;
  spec.scenario = Scenario::kHiNetInterval;
  spec.config = size_config(nodes);
  spec.base_seed = seed;
  spec.repetitions = job_reps;

  Point pt;
  pt.nodes = nodes;
  pt.reps = job_reps;

  const SpecFactory factory = scenario_factory(spec.scenario, spec.config);
  std::vector<ReplicateResult> replicates;
  pt.simulate_seconds = -1.0;
  for (std::size_t rep = 0; rep < bench_reps + 1; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    replicates = run_replicates(factory, job_reps, seed, 1);
    const double secs = seconds_since(t0);
    if (rep == 0) continue;  // warm-up
    if (pt.simulate_seconds < 0.0 || secs < pt.simulate_seconds) {
      pt.simulate_seconds = secs;
    }
  }
  const std::uint64_t expected =
      query_digest(StoredResult{spec, replicates});

  const std::string dir = "service_store.bench.tmp";
  double publish_best = -1.0;
  double serve_best = -1.0;
  for (std::size_t rep = 0; rep < bench_reps; ++rep) {
    std::filesystem::remove_all(dir);
    {
      ResultsStore store(dir);
      const auto t0 = std::chrono::steady_clock::now();
      store.publish(spec, replicates);
      const double secs = seconds_since(t0);
      if (publish_best < 0.0 || secs < publish_best) publish_best = secs;
      pt.segment_bytes =
          std::filesystem::file_size(store.segment_path(spec.content_hash()));
    }
    {
      const auto t0 = std::chrono::steady_clock::now();
      ResultsStore store(dir);
      const std::optional<StoredResult> got = store.load(spec);
      HINET_ENSURE(got.has_value(), "published job must serve");
      const std::uint64_t digest = query_digest(*got);
      const double secs = seconds_since(t0);
      HINET_ENSURE(digest == expected,
                   "served digest differs from the simulated one");
      if (serve_best < 0.0 || secs < serve_best) serve_best = secs;
    }
  }
  std::filesystem::remove_all(dir);
  pt.publish_ms = publish_best * 1e3;
  pt.serve_ms = serve_best * 1e3;
  if (serve_best > 0.0) pt.speedup = pt.simulate_seconds / serve_best;
  return pt;
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto bench_reps = args.get_uint(
      "reps", 3, "timed repetitions per size (best is kept)");
  const auto seed = args.get_uint("seed", 1, "job base seed");
  const auto job_reps = args.get_uint("job-reps", 5, "replicates per job");
  const auto only_nodes = args.get_uint(
      "nodes", 0, "measure a single network size (0 = the full sweep)");
  const std::string out_path = args.get_string(
      "out", "", "write BENCH json to this path (empty = stdout only)");

  return bench::run_main(args, "results-store publish/serve overhead", [&] {
    std::vector<std::size_t> sizes;
    if (only_nodes != 0) {
      sizes.push_back(only_nodes);
    } else {
      sizes = {60, 120, 240};
    }
    for (const std::size_t n : sizes) {
      validate_scenario_config(Scenario::kHiNetInterval, size_config(n));
    }

    std::cout << "=== Results-store overhead ((T, L)-HiNet interval "
                 "scenario, " << job_reps << " replicate(s) per job, seed="
              << seed << ") ===\n\n";
    TextTable t({"n", "job reps", "simulate s", "publish ms", "serve ms",
                 "seg bytes", "serve speedup"});
    std::vector<Point> points;
    for (const std::size_t n : sizes) {
      const Point pt = measure(n, seed, job_reps, bench_reps);
      points.push_back(pt);
      t.add(pt.nodes, pt.reps, pt.simulate_seconds, pt.publish_ms,
            pt.serve_ms, pt.segment_bytes, pt.speedup);
    }
    std::cout << t;

    if (!out_path.empty()) {
      std::ofstream out(out_path);
      out << "{\n"
          << "  \"bench\": \"service_store\",\n"
          << "  \"workload\": \"hinet_interval_publish_serve\",\n"
          << "  \"description\": \"ResultsStore staged-commit publish and "
             "content-addressed serve vs re-simulating the job: best-of-"
          << bench_reps
          << " wall time, build RelWithDebInfo (-O2). serve opens a fresh "
             "store, loads the job and computes the query digest — the "
             "hinetd query path. Reproduce with: build/bench/service_store "
             "--reps=" << bench_reps << " --out=...\",\n"
          << "  \"job_reps\": " << job_reps << ",\n"
          << "  \"seed\": " << seed << ",\n"
          << "  \"reps\": " << bench_reps << ",\n"
          << "  \"points\": [\n";
      for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        out << "    {\"nodes\": " << p.nodes << ", \"job_reps\": " << p.reps
            << ", \"simulate_seconds\": " << p.simulate_seconds
            << ", \"publish_ms\": " << p.publish_ms
            << ", \"serve_ms\": " << p.serve_ms
            << ", \"segment_bytes\": " << p.segment_bytes
            << ", \"serve_speedup\": " << p.speedup << "}"
            << (i + 1 < points.size() ? "," : "") << "\n";
      }
      out << "  ]\n}\n";
      std::cout << "\nwrote " << out_path << "\n";
    }
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
