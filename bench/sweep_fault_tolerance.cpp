// Validation figure V8: fault tolerance under crash/recovery churn and
// burst loss.
//
// Sweeps crash rate × loss burstiness × retransmit budget and measures
// completion rate, degradation (completion fraction / token coverage at
// cutoff) and cost for Algorithm 1/2 as specified versus their
// loss-tolerant variants, against flooding and gossip baselines.  Faults
// are injected as a FaultyNetwork decorator over a clean (T, L)-HiNet
// trace; the paper's hierarchy stays as generated, so a crashed cluster
// head is exactly the failure the paper's single-shot schedules cannot
// absorb: the member's one upload falls on a dead link and is never
// retried.  Results go to stdout and, with --out, to a BENCH json file.
#include "common.hpp"

#include <fstream>

#include "analysis/assignment.hpp"
#include "baseline/gossip.hpp"
#include "baseline/klo.hpp"
#include "cluster/maintenance.hpp"
#include "core/alg1.hpp"
#include "core/alg2.hpp"
#include "core/hinet_generator.hpp"
#include "sim/faults.hpp"

using namespace hinet;

namespace {

enum class Algo { kAlg1, kAlg2, kKloFlood, kGossip };

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kAlg1: return "alg1";
    case Algo::kAlg2: return "alg2";
    case Algo::kKloFlood: return "klo_flood";
    case Algo::kGossip: return "gossip";
  }
  return "?";
}

struct BurstLevel {
  const char* name;
  bool enabled = false;
  GilbertElliottParams params;
};

struct Cell {
  Algo algo = Algo::kAlg1;
  std::size_t budget = 0;    ///< Alg1 retransmit budget (0 = paper)
  std::size_t reupload = 0;  ///< Alg2 member re-upload interval (0 = paper)
  double crash_frac = 0.0;
  BurstLevel burst;
};

struct Workload {
  std::size_t nodes = 36;
  std::size_t heads = 6;
  std::size_t k = 5;
  std::size_t phase_length = 11;  ///< T = k + alpha * L
  std::size_t phases = 6;
  std::size_t downtime = 16;      ///< crash/recovery churn window
  std::size_t horizon() const { return phase_length * phases; }
};

HiNetConfig generator_config(const Workload& w, std::uint64_t seed) {
  HiNetConfig gen;
  gen.nodes = w.nodes;
  gen.heads = w.heads;
  gen.phase_length = w.phase_length;
  gen.phases = w.phases;
  gen.hop_l = 2;
  gen.reaffiliation_prob = 0.05;
  gen.seed = seed;
  return gen;
}

SpecFactory cell_factory(const Cell& cell, const Workload& w) {
  return [cell, w](std::uint64_t seed) {
    HiNetTrace trace = make_hinet_trace(generator_config(w, seed));
    const std::size_t horizon = w.horizon();

    // Faults edit the realized topology only; the hierarchy stays as
    // generated, so uploads towards a crashed head land on dead links.
    GraphSequence topo = std::move(trace.ctvg.topology());
    std::unique_ptr<GraphSequence> realized;
    const auto crash_count = static_cast<std::size_t>(
        cell.crash_frac * static_cast<double>(w.nodes) + 0.5);
    if (crash_count > 0) {
      FaultyNetwork faulty(
          topo, random_churn_plan(w.nodes, crash_count, horizon / 2,
                                  w.downtime, seed ^ 0xfa0175ULL));
      realized = std::make_unique<GraphSequence>(materialize(faulty, horizon));
    } else {
      realized = std::make_unique<GraphSequence>(std::move(topo));
    }

    Rng arng(seed ^ 0xa11ceULL);
    const auto init = assign_tokens(w.nodes, w.k,
                                    AssignmentMode::kDistinctRandom, arng);
    SimulationSpec spec;
    switch (cell.algo) {
      case Algo::kAlg1: {
        Alg1Params p;
        p.k = w.k;
        p.phase_length = w.phase_length;
        p.phases = w.phases;
        p.retransmit_budget = cell.budget;
        spec.processes = make_alg1_processes(init, p);
        break;
      }
      case Algo::kAlg2: {
        Alg2Params p;
        p.k = w.k;
        p.rounds = horizon;
        p.member_reupload_interval = cell.reupload;
        spec.processes = make_alg2_processes(init, p);
        break;
      }
      case Algo::kKloFlood: {
        KloFloodParams p;
        p.k = w.k;
        p.rounds = horizon;
        spec.processes = make_klo_flood_processes(init, p);
        break;
      }
      case Algo::kGossip: {
        GossipParams p;
        p.k = w.k;
        p.rounds = horizon;
        p.seed = seed ^ 0x90551bULL;
        spec.processes = make_gossip_processes(init, p);
        break;
      }
    }
    spec.hierarchy = std::make_unique<HierarchySequence>(
        std::move(trace.ctvg.hierarchy()));
    spec.network = std::move(realized);
    if (cell.burst.enabled) {
      spec.channel = std::make_unique<GilbertElliottChannel>(
          cell.burst.params, seed ^ 0x6e0b57ULL);
    }
    spec.engine.max_rounds = horizon;
    spec.engine.stop_when_complete = true;
    return spec;
  };
}

struct Row {
  Cell cell;
  AggregateResult agg;
};

std::string variant_label(const Cell& c) {
  std::ostringstream os;
  os << algo_name(c.algo);
  if (c.algo == Algo::kAlg1 && c.budget > 0) {
    os << " +retx" << c.budget << "+ack";
  }
  if (c.algo == Algo::kAlg2 && c.reupload > 0) {
    os << " +reup" << c.reupload;
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  Workload w;
  const auto reps = args.get_uint("reps", 6, "seeds per cell");
  w.nodes = args.get_uint("nodes", 36, "network size");
  w.heads = w.nodes / 6;
  const std::size_t jobs = args.get_jobs();
  const std::string out_path = args.get_string(
      "out", "", "write BENCH json to this path (empty = stdout only)");

  return bench::run_main(args, "V8 — fault tolerance sweep", [&] {
    validate_assignment(w.nodes, w.k, AssignmentMode::kDistinctRandom);
    validate_hinet_config(generator_config(w, 1));
    const BurstLevel bursts[] = {
        {"none", false, {}},
        // GE defaults: mean 4-round total-loss bursts, ~17% of time Bad.
        {"mild", true, {0.05, 0.25, 0.0, 1.0}},
        // Half the time inside mean ~6.7-round bursts.
        {"heavy", true, {0.15, 0.15, 0.0, 1.0}},
    };
    const double crash_fracs[] = {0.0, 0.15};
    const std::size_t alg1_budgets[] = {0, 1, 2, 4};
    const std::size_t alg2_reuploads[] = {0, 5};

    std::vector<Row> rows;
    std::cout << "=== V8: completion under crash/recovery churn and "
                 "Gilbert-Elliott burst loss ===\n"
              << "(T, L)-HiNet trace, n=" << w.nodes << ", k=" << w.k
              << ", T=" << w.phase_length << ", M=" << w.phases
              << "; crashes recover after " << w.downtime << " rounds\n\n";
    TextTable t({"crash", "burst", "variant", "delivery%", "completion",
                 "coverage", "rounds", "tokens"});
    for (double crash : crash_fracs) {
      for (const BurstLevel& burst : bursts) {
        std::vector<Cell> cells;
        for (std::size_t b : alg1_budgets) {
          cells.push_back({Algo::kAlg1, b, 0, crash, burst});
        }
        for (std::size_t r : alg2_reuploads) {
          cells.push_back({Algo::kAlg2, 0, r, crash, burst});
        }
        cells.push_back({Algo::kKloFlood, 0, 0, crash, burst});
        cells.push_back({Algo::kGossip, 0, 0, crash, burst});
        for (const Cell& cell : cells) {
          Row row{cell, run_experiment(
                            cell_factory(cell, w),
                            ExperimentOptions{
                                reps, 1, ExecutionPolicy::threaded(jobs)})};
          t.add(crash, burst.name, variant_label(cell),
                row.agg.delivery_rate * 100.0,
                row.agg.completion_fraction.mean, row.agg.token_coverage.mean,
                row.agg.rounds_to_completion.mean, row.agg.tokens_sent.mean);
          rows.push_back(std::move(row));
        }
      }
    }
    std::cout << t;
    std::cout << "\nReading: the paper's single-shot schedules stall once a "
                 "member upload falls into\na crash window or a loss burst — "
                 "delivery collapses while flooding shrugs it\noff at many "
                 "times the token cost.  A small retransmit budget (Alg 1) "
                 "or periodic\nre-upload (Alg 2) restores completion at a "
                 "token cost still far below flooding.\n";

    if (!out_path.empty()) {
      std::ofstream f(out_path);
      f << "{\n  \"bench\": \"fault_tolerance\",\n"
        << "  \"workload\": \"alg1_alg2_variants_vs_baselines_on_faulty_"
           "hinet_trace\",\n"
        << "  \"description\": \"Completion under crash/recovery churn "
           "(FaultyNetwork + random_churn_plan, crashes in the first half, "
           "downtime "
        << w.downtime
        << " rounds) and Gilbert-Elliott burst loss; hierarchy as generated "
           "(dead heads are not repaired), stop_when_complete, "
        << reps
        << " seeds per cell.  Reproduce with: build/bench/"
           "sweep_fault_tolerance --reps="
        << reps << " --nodes=" << w.nodes << " --out=...\",\n"
        << "  \"nodes\": " << w.nodes << ",\n  \"k\": " << w.k
        << ",\n  \"phase_length\": " << w.phase_length
        << ",\n  \"phases\": " << w.phases << ",\n  \"reps\": " << reps
        << ",\n  \"cells\": [\n";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        f << "    {\"crash_frac\": " << r.cell.crash_frac
          << ", \"burst\": \"" << r.cell.burst.name << "\", \"algorithm\": \""
          << algo_name(r.cell.algo)
          << "\", \"retransmit_budget\": " << r.cell.budget
          << ", \"reupload_interval\": " << r.cell.reupload
          << ", \"delivery_rate\": " << r.agg.delivery_rate
          << ", \"completion_fraction_mean\": "
          << r.agg.completion_fraction.mean
          << ", \"token_coverage_mean\": " << r.agg.token_coverage.mean
          << ", \"rounds_mean\": " << r.agg.rounds_to_completion.mean
          << ", \"tokens_mean\": " << r.agg.tokens_sent.mean << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
      }
      f << "  ]\n}\n";
      std::cout << "\nJSON written to " << out_path << '\n';
    }
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
