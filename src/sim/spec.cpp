#include "sim/spec.hpp"

#include <sstream>

#include "sim/engine.hpp"

namespace hinet {

namespace {

/// Spec-level validation with actionable, distinct messages.  The engine
/// re-checks the structural invariants (it is also reachable through the
/// borrowing constructor); these messages exist so a mis-built spec fails
/// naming the field to fix rather than with a generic contract violation.
void validate_simulation_spec(const SimulationSpec& spec) {
  HINET_REQUIRE(spec.network != nullptr, "SimulationSpec must own a network");
  if (spec.engine.max_rounds == 0) {
    throw PreconditionError(
        "SimulationSpec.engine.max_rounds is 0 — the run would execute no "
        "rounds; set max_rounds to the algorithm's scheduled horizon (e.g. "
        "alg1_scheduled_rounds / Alg2Params::rounds)");
  }
  const std::size_t n = spec.network->node_count();
  if (spec.processes.size() != n) {
    std::ostringstream os;
    os << "SimulationSpec.processes has " << spec.processes.size()
       << " entries for a " << n << "-node network — build exactly one "
       << "process per node, in node-id order";
    throw PreconditionError(os.str());
  }
  if (spec.hierarchy != nullptr) {
    if (spec.hierarchy->node_count() != n) {
      std::ostringstream os;
      os << "SimulationSpec.hierarchy covers " << spec.hierarchy->node_count()
         << " nodes but the network has " << n
         << " — hierarchy and topology must describe the same node set";
      throw PreconditionError(os.str());
    }
    // When both sides are explicit traces their horizons must agree: a
    // shorter hierarchy would silently freeze roles (rounds past the end
    // repeat the last view) while the topology keeps evolving — almost
    // always a mis-assembled spec, never what an experiment means.
    const auto* net_seq = dynamic_cast<const GraphSequence*>(spec.network.get());
    const auto* hier_seq =
        dynamic_cast<const HierarchySequence*>(spec.hierarchy.get());
    if (net_seq != nullptr && hier_seq != nullptr &&
        net_seq->round_count() != hier_seq->round_count()) {
      std::ostringstream os;
      os << "SimulationSpec network trace has " << net_seq->round_count()
         << " rounds but the hierarchy trace has " << hier_seq->round_count()
         << " — generate both from the same trace (or maintain the "
         << "hierarchy over the realized topology) so their horizons match";
      throw PreconditionError(os.str());
    }
    // A streaming topology paired with a materialized hierarchy (or vice
    // versa) gets the same horizon check against the stream's declared
    // horizon.  Paired streaming views (e.g. make_hinet_stream) share one
    // HiNetStreamNetwork, so their horizons agree by construction and
    // neither side is a sequence — nothing to check.
    const auto* net_stream =
        dynamic_cast<const StreamingNetwork*>(spec.network.get());
    if (net_stream != nullptr && hier_seq != nullptr &&
        net_stream->round_count() != hier_seq->round_count()) {
      std::ostringstream os;
      os << "SimulationSpec streaming network has a horizon of "
         << net_stream->round_count() << " rounds but the hierarchy trace has "
         << hier_seq->round_count()
         << " — their horizons must match (or stream the hierarchy from the "
         << "same generator)";
      throw PreconditionError(os.str());
    }
  }
}

}  // namespace

SimMetrics run_simulation(SimulationSpec spec) {
  validate_simulation_spec(spec);
  Engine engine(std::move(spec));
  return engine.run();
}

}  // namespace hinet
