#include "analysis/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baseline/klo.hpp"
#include "core/alg1.hpp"
#include "core/alg2.hpp"

namespace hinet {

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kKloInterval: return "(k+aL)-interval connected [7]";
    case Scenario::kHiNetInterval: return "(k+aL, L)-HiNet";
    case Scenario::kHiNetIntervalStable: return "(k+aL, L)-HiNet, stable heads";
    case Scenario::kKloOne: return "1-interval connected [7]";
    case Scenario::kHiNetOne: return "(1, L)-HiNet";
  }
  return "?";
}

const char* scenario_cli_name(Scenario s) {
  switch (s) {
    case Scenario::kKloInterval: return "klo-interval";
    case Scenario::kHiNetInterval: return "hinet-interval";
    case Scenario::kHiNetIntervalStable: return "hinet-interval-stable";
    case Scenario::kKloOne: return "klo-one";
    case Scenario::kHiNetOne: return "hinet-one";
  }
  return "?";
}

std::span<const Scenario> all_scenarios() {
  static constexpr Scenario kAll[] = {
      Scenario::kKloInterval, Scenario::kHiNetInterval,
      Scenario::kHiNetIntervalStable, Scenario::kKloOne, Scenario::kHiNetOne};
  return kAll;
}

std::string scenario_choices() {
  std::string out;
  for (const Scenario s : all_scenarios()) {
    if (!out.empty()) out += " | ";
    out += scenario_cli_name(s);
  }
  return out;
}

Scenario parse_scenario(const std::string& name) {
  for (const Scenario s : all_scenarios()) {
    if (name == scenario_cli_name(s)) return s;
  }
  throw std::invalid_argument("unknown --scenario '" + name +
                              "' (choose one of: " + scenario_choices() + ")");
}

void validate_scenario_config(Scenario s, const ScenarioConfig& cfg) {
  validate_assignment(cfg.nodes, cfg.k, cfg.assignment);
  validate_hinet_config(scenario_generator(s, cfg, /*seed=*/0));
}

ScenarioConfig cli_default_config() {
  ScenarioConfig cfg;
  cfg.nodes = 60;
  cfg.heads = 12;
  cfg.k = 6;
  cfg.alpha = 3;
  cfg.hop_l = 2;
  cfg.reaffiliation_prob = 0.05;
  cfg.churn_edges = 4;
  return cfg;
}

void check_in_model(Scenario s, const ScenarioConfig& cfg) {
  const auto broken = [&](const ScenarioConfig& trial) {
    try {
      validate_scenario_config(s, trial);
      return std::string();
    } catch (const PreconditionError& e) {
      return e.rule();
    }
  };
  const std::string why = broken(cfg);
  if (why.empty()) return;
  const auto name_if_broken = [&](const char* flag,
                                  const ScenarioConfig& alone) {
    const std::string alone_why = broken(alone);
    if (!alone_why.empty()) {
      throw std::invalid_argument(std::string("--") + flag +
                                  " is outside the model: " + alone_why);
    }
  };
  const auto alone_with = [&](auto field) {
    ScenarioConfig alone = cli_default_config();
    alone.heads = 1;
    alone.k = 1;
    alone.assignment = cfg.assignment;
    alone.*field = cfg.*field;
    return alone;
  };
  ScenarioConfig k_alone = alone_with(&ScenarioConfig::k);
  k_alone.nodes = std::max(k_alone.nodes, k_alone.k);
  name_if_broken("k", k_alone);
  name_if_broken("alpha", alone_with(&ScenarioConfig::alpha));
  name_if_broken("hop-l", alone_with(&ScenarioConfig::hop_l));
  name_if_broken("reaffil", alone_with(&ScenarioConfig::reaffiliation_prob));
  name_if_broken("nodes", alone_with(&ScenarioConfig::nodes));
  ScenarioConfig heads_alone = alone_with(&ScenarioConfig::heads);
  heads_alone.hop_l = 1;
  heads_alone.nodes = std::max<std::size_t>(cfg.heads, 1);
  name_if_broken("heads", heads_alone);
  ScenarioConfig k_on_nodes = alone_with(&ScenarioConfig::k);
  k_on_nodes.nodes = cfg.nodes;
  name_if_broken("k", k_on_nodes);
  throw std::invalid_argument(
      "--nodes, --heads and --hop-l are outside the model together: " + why);
}

HiNetConfig scenario_generator(Scenario s, const ScenarioConfig& cfg,
                               std::uint64_t seed,
                               ScenarioSchedule* schedule) {
  // The phase lengths and counts below are built from alpha and L (klo-
  // interval divides by their product), so those two are checked first.
  HINET_REQUIRE(cfg.alpha >= 1, "alpha must be >= 1");
  HINET_REQUIRE(cfg.hop_l >= 1, "L must be >= 1");
  // Section V's schedules, from the cost model: T = k + αL, and M per row.
  CostParams p;
  p.n0 = cfg.nodes;
  p.theta = cfg.heads;
  p.k = cfg.k;
  p.alpha = cfg.alpha;
  p.l = static_cast<std::size_t>(cfg.hop_l);
  HiNetConfig gen;
  gen.nodes = cfg.nodes;
  gen.heads = cfg.heads;
  gen.hop_l = cfg.hop_l;
  gen.reaffiliation_prob = cfg.reaffiliation_prob;
  gen.churn_edges = cfg.churn_edges;
  gen.seed = seed;
  switch (s) {
    case Scenario::kKloInterval: {
      gen.phase_length = alg1_min_phase_length(p);
      gen.phases = klo_phase_count(p);
      break;
    }
    case Scenario::kHiNetInterval: {
      gen.phase_length = alg1_min_phase_length(p);
      gen.phases = alg1_phase_count(p);
      break;
    }
    case Scenario::kHiNetIntervalStable: {
      gen.phase_length = alg1_min_phase_length(p);
      gen.phases = alg1_phase_count(p);
      gen.stable_heads = true;
      break;
    }
    case Scenario::kKloOne:
    case Scenario::kHiNetOne: {
      gen.phase_length = 1;
      // n0 - 1 rounds, and one phase at the least (n0 = 1).
      gen.phases = cfg.nodes >= 2 ? alg2_round_count(p) : 1;
      // With single-round phases a full backbone reshuffle every round
      // would force member/gateway role flips far beyond the n_r the
      // analytic model accounts for; keep the relay structure quasi-stable
      // and let the re-affiliation coin drive churn.
      gen.backbone_rewire_prob = cfg.reaffiliation_prob;
      break;
    }
  }
  if (schedule != nullptr) {
    schedule->phase_length = gen.phase_length;
    schedule->phases = gen.phases;
  }
  return gen;
}

namespace {

std::vector<ProcessPtr> plan_processes(Scenario s, const ScenarioConfig& cfg,
                                       const ScenarioSchedule& sched,
                                       const std::vector<TokenSet>& initial) {
  switch (s) {
    case Scenario::kKloInterval: {
      KloPipelineParams p;
      p.k = cfg.k;
      p.phase_length = sched.phase_length;
      p.phases = sched.phases;
      return make_klo_pipeline_processes(initial, p);
    }
    case Scenario::kHiNetInterval:
    case Scenario::kHiNetIntervalStable: {
      Alg1Params p;
      p.k = cfg.k;
      p.phase_length = sched.phase_length;
      p.phases = sched.phases;
      p.stable_head_optimisation = s == Scenario::kHiNetIntervalStable;
      return make_alg1_processes(initial, p);
    }
    case Scenario::kKloOne: {
      KloFloodParams p;
      p.k = cfg.k;
      p.rounds = sched.rounds();
      return make_klo_flood_processes(initial, p);
    }
    case Scenario::kHiNetOne: {
      Alg2Params p;
      p.k = cfg.k;
      p.rounds = sched.rounds();
      return make_alg2_processes(initial, p);
    }
  }
  HINET_ENSURE(false, "unreachable scenario");
  return {};
}

/// The runnable spec of scenario `s` over a trace's two views: token
/// assignment, processes, hierarchy (dropped for the KLO scenarios) and
/// engine config.  Every builder below assembles its spec here.
SimulationSpec assemble_spec(Scenario s, const ScenarioConfig& cfg,
                             const ScenarioSchedule& sched, std::uint64_t seed,
                             std::unique_ptr<DynamicNetwork> network,
                             std::unique_ptr<HierarchyProvider> hierarchy) {
  Rng assign_rng(seed ^ 0xa5a5a5a5a5a5a5a5ULL);
  const auto initial =
      assign_tokens(cfg.nodes, cfg.k, cfg.assignment, assign_rng);

  SimulationSpec spec;
  spec.processes = plan_processes(s, cfg, sched, initial);
  const bool uses_hierarchy = s == Scenario::kHiNetInterval ||
                              s == Scenario::kHiNetIntervalStable ||
                              s == Scenario::kHiNetOne;
  if (uses_hierarchy) spec.hierarchy = std::move(hierarchy);
  spec.network = std::move(network);
  spec.engine.max_rounds = sched.rounds();
  spec.engine.stop_when_complete = !cfg.run_full_schedule;
  return spec;
}

/// Scenario `s` at `seed` over a streaming trace: rounds are synthesized
/// on demand and only a small ring stays resident, so scenario memory is
/// O(n·window), not O(n·Γ).  Byte-identical to the materialized
/// make_hinet_trace path (pinned by the conformance suite), so goldens and
/// digests are unchanged.  Plans the trace once; its statistics are not
/// computed here.
SimulationSpec streamed_spec(Scenario s, const ScenarioConfig& cfg,
                             std::uint64_t seed) {
  validate_scenario_config(s, cfg);
  ScenarioSchedule sched;
  HiNetStream stream =
      make_hinet_stream(scenario_generator(s, cfg, seed, &sched));
  return assemble_spec(s, cfg, sched, seed, std::move(stream.topology),
                       std::move(stream.hierarchy));
}

/// A spec plus its trace's statistics and the analytic CostParams
/// instantiated with them.
ScenarioRun with_trace_stats(SimulationSpec spec, const HiNetTraceStats& stats,
                             const ScenarioConfig& cfg) {
  ScenarioRun out;
  out.trace_stats = stats;
  out.scheduled_rounds = spec.engine.max_rounds;
  out.analytic.n0 = cfg.nodes;
  out.analytic.theta = stats.theta;
  out.analytic.n_m =
      static_cast<std::size_t>(std::llround(stats.mean_members));
  out.analytic.n_r =
      static_cast<std::size_t>(std::llround(stats.mean_reaffiliations));
  out.analytic.k = cfg.k;
  out.analytic.alpha = cfg.alpha;
  out.analytic.l = static_cast<std::size_t>(cfg.hop_l);
  out.spec = std::move(spec);
  return out;
}

}  // namespace

ScenarioRun make_scenario_from_trace(Scenario s, const ScenarioConfig& cfg,
                                     HiNetTrace&& trace, std::uint64_t seed) {
  validate_scenario_config(s, cfg);
  ScenarioSchedule sched;
  (void)scenario_generator(s, cfg, seed, &sched);
  SimulationSpec spec = assemble_spec(
      s, cfg, sched, seed,
      std::make_unique<GraphSequence>(std::move(trace.ctvg.topology())),
      std::make_unique<HierarchySequence>(std::move(trace.ctvg.hierarchy())));
  return with_trace_stats(std::move(spec), trace.stats, cfg);
}

ScenarioRun make_scenario(Scenario s, const ScenarioConfig& cfg,
                          std::uint64_t seed) {
  SimulationSpec spec = streamed_spec(s, cfg, seed);
  return with_trace_stats(std::move(spec),
                          hinet_trace_stats(scenario_generator(s, cfg, seed)),
                          cfg);
}

SpecFactory scenario_factory(Scenario s, const ScenarioConfig& cfg) {
  return [s, cfg](std::uint64_t seed) { return streamed_spec(s, cfg, seed); };
}

}  // namespace hinet
