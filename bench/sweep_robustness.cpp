// Validation figure V6: robustness under channel failures.
//
// The paper's correctness proofs assume perfect local broadcast.  This
// sweep injects i.i.d. packet loss and collision interference and measures
// how each algorithm's delivery rate and completion time degrade — the
// price of the model's idealisation, quantified.
#include "common.hpp"

#include "analysis/assignment.hpp"
#include "baseline/klo.hpp"
#include "core/alg2.hpp"
#include "core/hinet_generator.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"

using namespace hinet;

namespace {

struct Outcome {
  double delivery = 0.0;
  double rounds_mean = 0.0;
  double tokens_mean = 0.0;
};

/// The (1, L)-HiNet trace of every cell: single-round phases over a horizon
/// of slack * (nodes - 1) rounds.
HiNetConfig generator_config(std::size_t nodes, std::size_t slack,
                             std::uint64_t seed) {
  HiNetConfig gen;
  gen.nodes = nodes;
  gen.heads = nodes / 6;
  gen.phase_length = 1;
  gen.phases = slack * (nodes - 1);
  gen.hop_l = 2;
  gen.reaffiliation_prob = 0.1;
  gen.seed = seed;
  return gen;
}

/// SpecFactory for one (algorithm, loss) cell; pure function of the seed.
SpecFactory cell_factory(bool hinet, double loss, std::size_t nodes,
                         std::size_t k, std::size_t slack) {
  const std::size_t horizon = slack * (nodes - 1);
  return [=](std::uint64_t seed) {
    HiNetTrace trace = make_hinet_trace(generator_config(nodes, slack, seed));
    Rng arng(seed ^ 0xa11ceULL);
    const auto init =
        assign_tokens(nodes, k, AssignmentMode::kDistinctRandom, arng);
    SimulationSpec spec;
    if (hinet) {
      Alg2Params p;
      p.k = k;
      p.rounds = horizon;
      spec.processes = make_alg2_processes(init, p);
      spec.hierarchy = std::make_unique<HierarchySequence>(
          std::move(trace.ctvg.hierarchy()));
    } else {
      KloFloodParams p;
      p.k = k;
      p.rounds = horizon;
      spec.processes = make_klo_flood_processes(init, p);
    }
    spec.network =
        std::make_unique<GraphSequence>(std::move(trace.ctvg.topology()));
    spec.channel = std::make_unique<LossyChannel>(loss, seed ^ 0x10553ULL);
    spec.engine.max_rounds = horizon;
    spec.engine.stop_when_complete = true;
    return spec;
  };
}

Outcome run_cells(bool hinet, double loss, std::size_t reps,
                  std::size_t nodes, std::size_t k, std::size_t slack,
                  std::size_t jobs) {
  const AggregateResult agg = run_experiment(
      cell_factory(hinet, loss, nodes, k, slack),
      ExperimentOptions{reps, 0, ExecutionPolicy::threaded(jobs)});
  Outcome o;
  o.delivery = agg.delivery_rate;
  o.rounds_mean = agg.rounds_to_completion.mean;
  o.tokens_mean = agg.tokens_sent.mean;
  return o;
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const auto reps = args.get_uint("reps", 4, "seeds per cell");
  const auto nodes = args.get_uint("nodes", 36, "network size");
  const auto k = args.get_uint("k", 5, "token count");
  const std::size_t jobs = args.get_jobs();

  return bench::run_main(args, "V6 — robustness under packet loss", [&] {
    validate_assignment(nodes, k, AssignmentMode::kDistinctRandom);
    validate_hinet_config(generator_config(nodes, 3, 0));
    std::cout << "=== V6: delivery under i.i.d. packet loss ((1,L)-HiNet "
                 "traces, horizon 3(n-1) rounds) ===\n\n";
    TextTable t({"loss", "algorithm", "delivery%", "rounds (mean)",
                 "tokens (mean)"});
    for (double loss : {0.0, 0.1, 0.25, 0.5, 0.75}) {
      const Outcome hi = run_cells(true, loss, reps, nodes, k, 3, jobs);
      const Outcome klo = run_cells(false, loss, reps, nodes, k, 3, jobs);
      t.add(loss, "Algorithm 2 ((1,L)-HiNet)", hi.delivery * 100.0,
            hi.rounds_mean, hi.tokens_mean);
      t.add(loss, "KLO token forwarding [7]", klo.delivery * 100.0,
            klo.rounds_mean, klo.tokens_mean);
    }
    std::cout << t;
    std::cout << "\nReading: per-round re-broadcasting makes both algorithms "
                 "self-healing under\ni.i.d. loss (delivery stays high with "
                 "a 3(n-1)-round horizon), but completion\nslows more for "
                 "Algorithm 2 — its economy (silent members, single relay "
                 "paths)\nmeans fewer redundant copies per round — while its "
                 "token cost stays below KLO's\nat every loss level.\n";
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
