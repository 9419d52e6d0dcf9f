// The four evaluation scenarios of the paper's Section V, prepared as
// runnable simulations:
//
//   kKloInterval   — KLO pipeline on a (k+αL, L)-HiNet trace, hierarchy
//                    ignored (the "(k+αL)-interval connected [7]" row);
//   kHiNetInterval — Algorithm 1 on the same trace family;
//   kHiNetIntervalStable — Remark 1 variant on an ∞-stable-head trace;
//   kKloOne        — KLO full-broadcast forwarding on a (1, L)-HiNet trace;
//   kHiNetOne      — Algorithm 2 on the same trace family.
//
// Each scenario builder returns a self-owning SimulationSpec plus the
// generator's observed dynamics statistics and the analytic CostParams
// instantiated with those *measured* values (θ, n_m, n_r), so benches can
// print analytic-vs-measured side by side.
#pragma once

#include <span>
#include <string>

#include "analysis/assignment.hpp"
#include "analysis/experiment.hpp"
#include "core/cost_model.hpp"
#include "core/hinet_generator.hpp"

namespace hinet {

enum class Scenario {
  kKloInterval,
  kHiNetInterval,
  kHiNetIntervalStable,
  kKloOne,
  kHiNetOne,
};

const char* scenario_name(Scenario s);

/// Stable machine-readable identifier ("hinet-interval", "klo-one", ...):
/// the spelling the CLI tools accept and the durable job specs store.
const char* scenario_cli_name(Scenario s);

/// Every scenario, in declaration order (for "list what I accept" help
/// text and exhaustive tests).
std::span<const Scenario> all_scenarios();

/// Every scenario_cli_name, joined by " | " (for help text).
std::string scenario_choices();

/// Inverse of scenario_cli_name; throws std::invalid_argument, a usage
/// error listing scenario_choices(), for an unknown name.  Shared by
/// sweep_runner and hinetd so the two front-ends cannot drift apart.
Scenario parse_scenario(const std::string& name);

struct ScenarioConfig {
  std::size_t nodes = 100;
  std::size_t heads = 30;  ///< generator head count; also the θ bound
  std::size_t k = 8;
  std::size_t alpha = 5;
  int hop_l = 2;
  /// Member re-affiliation probability per phase boundary (per round for
  /// the (1, L) scenarios, whose phases are single rounds).
  double reaffiliation_prob = 0.05;
  std::size_t churn_edges = 4;
  AssignmentMode assignment = AssignmentMode::kDistinctRandom;
  /// Run the full schedule instead of stopping at completion, so measured
  /// communication reflects the algorithm as specified (no oracle stop).
  bool run_full_schedule = true;
};

/// Phase structure a scenario's algorithm is scheduled for.
struct ScenarioSchedule {
  std::size_t phase_length = 0;  ///< T
  std::size_t phases = 0;        ///< M
  std::size_t rounds() const { return phase_length * phases; }
};

/// Throws PreconditionError unless scenario `s` can be built from cfg: the
/// token assignment's rules (validate_assignment), then alpha and L at
/// least 1 and the generator's rules (validate_hinet_config) on
/// scenario_generator(s, cfg).  Every scenario builder checks it first,
/// so a front end can reject a spec before any replicate runs it.
void validate_scenario_config(Scenario s, const ScenarioConfig& cfg);

/// The spec flags' defaults in sweep_runner and hinetd: a config inside
/// the model.
ScenarioConfig cli_default_config();

/// Throws std::invalid_argument, a usage error that names the flag at
/// fault and the broken rule's own message, unless
/// validate_scenario_config(s, cfg) passes; sweep_runner and hinetd call
/// it before any replicate runs.  Each model flag's value is tried alone
/// on cli_default_config(), sized so that no rule joining two flags is in
/// play (one head needs no relays, one token fits on any node count, --k
/// is tried on at least k nodes, and --heads at L = 1 on as many nodes),
/// and the first that breaks a rule by itself is named.  Then --k is
/// tried on cfg's node count, which names a k the assignment cannot place
/// (distinct-random needs k <= n).  A config that passes all of these has
/// too few nodes for its heads and relays, and the message names the
/// three flags that budget takes.
void check_in_model(Scenario s, const ScenarioConfig& cfg);

/// Generator configuration realising scenario `s` at (cfg, seed); throws
/// PreconditionError when alpha or L is below 1.  When
/// `schedule` is non-null it receives the phase structure.  Exposed so
/// tools (e.g. quickstart) can generate the trace themselves, inspect or
/// property-check it, and only then hand it to make_scenario_from_trace.
HiNetConfig scenario_generator(Scenario s, const ScenarioConfig& cfg,
                               std::uint64_t seed,
                               ScenarioSchedule* schedule = nullptr);

struct ScenarioRun {
  /// The runnable simulation; owns trace, hierarchy and processes.
  SimulationSpec spec;
  HiNetTraceStats trace_stats;
  /// CostParams with θ, n_m, n_r filled from the generated trace (rounded
  /// to the nearest integer), ready for the Table 2 formulas.
  CostParams analytic;
  std::size_t scheduled_rounds = 0;
};

ScenarioRun make_scenario(Scenario s, const ScenarioConfig& cfg,
                          std::uint64_t seed);

/// Builds the runnable spec from an already-generated trace (consumes it).
/// The trace must come from scenario_generator(s, cfg, seed) — the token
/// assignment is derived from the same seed.
ScenarioRun make_scenario_from_trace(Scenario s, const ScenarioConfig& cfg,
                                     HiNetTrace&& trace, std::uint64_t seed);

/// SpecFactory adapter for run_experiment (any ExecutionPolicy).
/// Pure function of the seed, hence safe for concurrent invocation.
SpecFactory scenario_factory(Scenario s, const ScenarioConfig& cfg);

}  // namespace hinet
