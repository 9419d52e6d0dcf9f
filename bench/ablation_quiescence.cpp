// Ablation A4: scheduled vs adaptive termination.
//
// The theorems prescribe worst-case schedules (M phases / n-1 rounds); the
// paper notes heads "can stop broadcasting after a specific number of time
// intervals".  This ablation measures the cost saved and the delivery risk
// introduced by adaptive quiescence at several thresholds.
#include "common.hpp"

#include "analysis/assignment.hpp"
#include "core/alg2.hpp"
#include "core/hinet_generator.hpp"
#include "sim/engine.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto reps = args.get_uint("reps", 5, "seeds per cell");
  const auto nodes = args.get_uint("nodes", 48, "network size");
  const auto k = args.get_uint("k", 5, "token count");

  return bench::run_main(args, "A4 — scheduled vs adaptive termination", [&] {
    HINET_REQUIRE(reps >= 1, "need at least one repetition");
    std::cout << "=== A4: Algorithm 2 quiescence ablation ((1,L)-HiNet, n0="
              << nodes << ", k=" << k << ") ===\n\n";
    TextTable t({"quiescence", "delivery%", "tokens (mean)",
                 "saving vs schedule"});
    double baseline_tokens = 0.0;
    for (std::size_t q : {0u, 2u, 4u, 8u, 16u}) {
      double tokens_sum = 0.0;
      std::size_t delivered = 0;
      for (std::uint64_t seed = 0; seed < reps; ++seed) {
        HiNetConfig gen;
        gen.nodes = nodes;
        gen.heads = nodes / 6;
        gen.phase_length = 1;
        gen.phases = nodes - 1;
        gen.hop_l = 2;
        gen.reaffiliation_prob = 0.1;
        gen.seed = seed;
        HiNetTrace trace = make_hinet_trace(gen);
        Rng arng(seed ^ 0xcafeULL);
        const auto init =
            assign_tokens(nodes, k, AssignmentMode::kDistinctRandom, arng);
        Alg2Params p;
        p.k = k;
        p.rounds = nodes - 1;
        p.quiescence_rounds = q;
        Engine engine(trace.ctvg.topology(), &trace.ctvg.hierarchy(),
                      make_alg2_processes(init, p));
        const SimMetrics m = engine.run(
            {.max_rounds = nodes - 1, .stop_when_complete = false});
        tokens_sum += static_cast<double>(m.tokens_sent);
        if (m.all_delivered) ++delivered;
      }
      const double mean = tokens_sum / static_cast<double>(reps);
      if (q == 0) baseline_tokens = mean;
      std::ostringstream saving;
      if (q == 0) {
        saving << "(baseline)";
      } else {
        saving << (1.0 - mean / baseline_tokens) * 100.0 << "%";
      }
      t.add(q == 0 ? std::string("off (full schedule)") : std::to_string(q),
            static_cast<double>(delivered) / static_cast<double>(reps) *
                100.0,
            mean, saving.str());
    }
    std::cout << t;
    std::cout << "\nReading: small thresholds risk stopping before slow "
                 "tokens arrive; a modest\nthreshold keeps 100% delivery on "
                 "these traces while cutting the tail of the\nworst-case "
                 "schedule.\n";
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
