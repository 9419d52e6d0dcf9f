// Checkpoint overhead benchmark.
//
// Quantifies what crash-safety costs: the same (T, L)-HiNet interval
// scenario is run twice per network size — once uninterrupted through
// Engine::run, once through the round-granular start/step/finish loop with
// Engine::snapshot() taken every --every rounds — and the wall-time delta
// is attributed to checkpointing.  A separate timed section measures the
// durable path (save_snapshot_file + load_snapshot_file round trip, i.e.
// serialize + CRC + atomic rename + re-validate).  Finally the last
// snapshot is restored into a freshly built spec and the run finished:
// restore_us times Engine::restore plus the resumed run's first step,
// which is where a streamed trace re-synthesizes the prefix the snapshot
// does not hold.  The checkpointed and the restored run must both produce
// the uninterrupted run's SimMetrics, so the bench doubles as a smoke
// check that snapshotting never perturbs the simulation it observes and
// that resume is exact.  Results go to stdout and, with --out, to
// BENCH_checkpoint_overhead.json.
#include "common.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "sim/engine.hpp"
#include "sim/snapshot.hpp"

using namespace hinet;

namespace {

struct Point {
  std::size_t nodes = 0;
  std::size_t rounds = 0;            ///< rounds the scenario actually ran
  double plain_seconds = 0.0;        ///< best-of-reps uninterrupted run
  double ckpt_seconds = 0.0;         ///< best-of-reps run with snapshots
  std::size_t snapshots = 0;         ///< snapshots taken per checkpointed run
  std::size_t snapshot_bytes = 0;    ///< payload size (constant per spec)
  double snapshot_us = 0.0;          ///< mean in-memory snapshot() cost
  double overhead_pct = 0.0;         ///< (ckpt - plain) / plain * 100
  double file_roundtrip_us = 0.0;    ///< save + load of one snapshot file
  double restore_us = 0.0;  ///< restore of the last snapshot + first step
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

Point measure(std::size_t nodes, std::uint64_t seed, std::size_t reps,
              std::size_t every) {
  const SpecFactory factory =
      scenario_factory(Scenario::kHiNetInterval, size_config(nodes));
  Point pt;
  pt.nodes = nodes;
  pt.plain_seconds = -1.0;
  pt.ckpt_seconds = -1.0;

  SimMetrics plain_metrics;
  for (std::size_t rep = 0; rep < reps + 1; ++rep) {
    Engine eng(factory(seed));
    const auto t0 = std::chrono::steady_clock::now();
    const SimMetrics m = eng.run();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (rep == 0) {
      plain_metrics = m;
      continue;  // warm-up
    }
    if (pt.plain_seconds < 0.0 || secs < pt.plain_seconds) {
      pt.plain_seconds = secs;
    }
  }
  pt.rounds = plain_metrics.rounds_executed;

  SimSnapshot last;
  for (std::size_t rep = 0; rep < reps + 1; ++rep) {
    SimulationSpec spec = factory(seed);
    const EngineConfig cfg = spec.engine;
    Engine eng(std::move(spec));
    std::size_t snapshots = 0;
    const auto t0 = std::chrono::steady_clock::now();
    eng.start(cfg);
    while (eng.step()) {
      if (eng.current_round() % every == 0) {
        last = eng.snapshot();
        ++snapshots;
      }
    }
    const SimMetrics m = eng.finish();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    HINET_ENSURE(m == plain_metrics,
                 "snapshotting perturbed the run: checkpointed metrics "
                 "differ from the uninterrupted run");
    if (rep == 0) continue;  // warm-up
    if (pt.ckpt_seconds < 0.0 || secs < pt.ckpt_seconds) {
      pt.ckpt_seconds = secs;
    }
    pt.snapshots = snapshots;
  }
  pt.snapshot_bytes = last.size_bytes();
  if (pt.snapshots > 0) {
    pt.snapshot_us = (pt.ckpt_seconds - pt.plain_seconds) * 1e6 /
                     static_cast<double>(pt.snapshots);
    if (pt.snapshot_us < 0.0) pt.snapshot_us = 0.0;  // noise floor
  }
  if (pt.plain_seconds > 0.0) {
    pt.overhead_pct =
        (pt.ckpt_seconds - pt.plain_seconds) / pt.plain_seconds * 100.0;
  }

  const std::string path = "checkpoint_overhead.snap.tmp";
  double best = -1.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    save_snapshot_file(last, path);
    const SimSnapshot back = load_snapshot_file(path);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    HINET_ENSURE(back.payload == last.payload,
                 "snapshot file round trip changed the payload");
    if (best < 0.0 || secs < best) best = secs;
  }
  std::remove(path.c_str());
  pt.file_roundtrip_us = best * 1e6;

  // A run too short to snapshot (--every past its length) has nothing to
  // restore.
  if (pt.snapshots == 0) return pt;
  best = -1.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    Engine eng(factory(seed));
    const auto t0 = std::chrono::steady_clock::now();
    eng.restore(last);
    bool more = eng.step();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    while (more) more = eng.step();
    HINET_ENSURE(eng.finish() == plain_metrics,
                 "resume is not exact: the run restored from the last "
                 "snapshot differs from the uninterrupted run");
    if (best < 0.0 || secs < best) best = secs;
  }
  pt.restore_us = best * 1e6;
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto reps = static_cast<std::size_t>(
      args.get_int("reps", 3, "timed repetitions per size (best is kept)"));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1, "scenario seed"));
  const auto every = static_cast<std::size_t>(args.get_int(
      "every", 1, "take a snapshot every this many rounds"));
  const auto only_nodes = static_cast<std::size_t>(args.get_int(
      "nodes", 0, "measure a single network size (0 = the full sweep)"));
  const std::string out_path = args.get_string(
      "out", "", "write BENCH json to this path (empty = stdout only)");

  return bench::run_main(args, "engine checkpoint/restore overhead", [&] {
    std::vector<std::size_t> sizes;
    if (only_nodes != 0) {
      sizes.push_back(only_nodes);
    } else {
      sizes = {60, 120, 240};
    }

    const unsigned hw = std::thread::hardware_concurrency();
    std::cout << "=== Checkpoint overhead ((T, L)-HiNet interval scenario, "
                 "snapshot every " << every << " round(s), seed=" << seed
              << ") ===\n"
              << "commit " << HINET_GIT_COMMIT << ", " << HINET_BUILD_TYPE
              << ", hardware_concurrency=" << hw << ", "
              << bench::cpu_model() << "\n\n";
    TextTable t({"n", "rounds", "plain s", "ckpt s", "overhead %",
                 "snap bytes", "snap us", "file rt us", "restore us"});
    std::vector<Point> points;
    for (const std::size_t n : sizes) {
      const Point p = measure(n, seed, reps, every);
      t.add(p.nodes, p.rounds, p.plain_seconds, p.ckpt_seconds,
            p.overhead_pct, p.snapshot_bytes, p.snapshot_us,
            p.file_roundtrip_us, p.restore_us);
      points.push_back(p);
    }
    std::cout << t;

    if (!out_path.empty()) {
      std::ofstream f(out_path);
      f << "{\n";
      f << "  \"bench\": \"checkpoint_overhead\",\n";
      f << "  \"workload\": \"hinet_interval_snapshot_every_round\",\n";
      f << "  \"description\": \"Engine::snapshot cost on the (T, L)-HiNet "
           "interval scenario: uninterrupted Engine::run vs a "
           "start/step/finish loop snapshotting every "
        << every
        << " round(s) (worst case); best-of-" << reps
        << " wall time, build RelWithDebInfo (-O2). snapshot_us is the "
           "in-memory serialize cost per checkpoint, file_roundtrip_us adds "
           "the checksummed atomic write + validated re-read, restore_us is "
           "Engine::restore of the last snapshot into a freshly built spec "
           "plus the resumed run's first step (best of reps; the restored "
           "run is finished and must equal the uninterrupted one). "
           "Reproduce with: build/bench/checkpoint_overhead --reps=" << reps
        << " --out=...\",\n";
      f << "  \"every\": " << every << ",\n";
      f << "  \"seed\": " << seed << ",\n";
      f << "  \"reps\": " << reps << ",\n";
      f << "  \"commit\": \"" << HINET_GIT_COMMIT << "\",\n";
      f << "  \"build_type\": \"" << HINET_BUILD_TYPE << "\",\n";
      f << "  \"hardware_concurrency\": " << hw << ",\n";
      f << "  \"cpu_model\": \"" << bench::cpu_model() << "\",\n";
      f << "  \"points\": [\n";
      for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        f << "    {\"nodes\": " << p.nodes << ", \"rounds\": " << p.rounds
          << ", \"plain_seconds\": " << p.plain_seconds
          << ", \"ckpt_seconds\": " << p.ckpt_seconds
          << ", \"overhead_pct\": " << p.overhead_pct
          << ", \"snapshots\": " << p.snapshots
          << ", \"snapshot_bytes\": " << p.snapshot_bytes
          << ", \"snapshot_us\": " << p.snapshot_us
          << ", \"file_roundtrip_us\": " << p.file_roundtrip_us
          << ", \"restore_us\": " << p.restore_us << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
      }
      f << "  ]\n}\n";
      std::cout << "\nJSON written to " << out_path << '\n';
    }
  });
}
