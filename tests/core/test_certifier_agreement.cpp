// Agreement of the two readings of the per-window judge: the
// first-violation checkers (check_*) and the per-window assumption
// monitor must tell the same story about Definitions 2, 4, 5, 7 and 8 on
// every trace — clean, churned and crashed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "core/hinet_generator.hpp"
#include "core/hinet_properties.hpp"
#include "sim/faults.hpp"

namespace hinet {
namespace {

enum class Variant { kClean, kHeadChurn, kCrash };

HiNetConfig agreement_config(std::uint64_t seed, std::size_t t, int l,
                             Variant variant) {
  HiNetConfig cfg;
  cfg.nodes = 36;
  cfg.heads = 4;
  cfg.phase_length = t;
  cfg.phases = t >= 20 ? 3 : 6;
  cfg.hop_l = l;
  cfg.reaffiliation_prob = 0.3;
  cfg.churn_edges = 3;
  cfg.seed = seed;
  if (variant != Variant::kClean) {
    cfg.head_churn_prob = 0.3;
    cfg.backbone_rewire_prob = 0.5;
  }
  return cfg;
}

/// The generated trace; under kCrash, the realized topology after the
/// middle round's first head crashes there and recovers T + 1 rounds
/// later, with the generator's views.
Ctvg agreement_trace(const HiNetConfig& cfg, Variant variant) {
  HiNetTrace trace = make_hinet_trace(cfg);
  if (variant != Variant::kCrash) return std::move(trace.ctvg);
  const std::size_t rounds = trace.ctvg.round_count();
  const Round crash = rounds / 2;
  FaultPlan plan;
  plan.crashes.push_back({trace.ctvg.hierarchy_at(crash).heads().front(),
                          crash, crash + cfg.phase_length + 1});
  FaultyNetwork faulty(trace.ctvg.topology(), plan);
  return Ctvg(materialize(faulty, rounds),
              HierarchySequence(trace.ctvg.hierarchy().rounds()));
}

/// The window a checker's violation names ("... phase starting at round
/// S ..."), or -1 when it names none.
long long named_phase(const std::string& violation) {
  const std::string key = "phase starting at round ";
  const auto at = violation.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(violation.substr(at + key.size()));
}

/// `check` holds iff every window's `flag` holds, and otherwise names the
/// first window whose flag fails.
void expect_agrees(const PropertyResult& check, const AssumptionReport& report,
                   bool WindowReport::*flag, const char* definition) {
  const auto first =
      std::find_if(report.windows.begin(), report.windows.end(),
                   [&](const WindowReport& w) { return !(w.*flag); });
  if (first == report.windows.end()) {
    EXPECT_TRUE(check.holds) << definition << ": " << check.violation;
    return;
  }
  EXPECT_FALSE(check.holds) << definition;
  EXPECT_EQ(named_phase(check.violation), static_cast<long long>(first->start))
      << definition << ": " << check.violation;
}

class CertifierAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CertifierAgreement, CheckersAgreeWithEveryWindowOfTheMonitor) {
  const std::pair<std::size_t, int> shapes[] = {{1, 2}, {6, 2}, {20, 3}};
  std::size_t violated = 0;
  for (const auto& [phase, hop] : shapes) {
    for (Variant variant :
         {Variant::kClean, Variant::kHeadChurn, Variant::kCrash}) {
      const HiNetConfig cfg =
          agreement_config(GetParam(), phase, hop, variant);
      Ctvg g = agreement_trace(cfg, variant);
      const std::size_t rounds = g.round_count();
      // The generator's own (T, L), then windows straddling its phase
      // boundaries under a bound one hop tighter.
      for (const auto& [t, l] :
           {std::pair<std::size_t, int>{phase, hop}, {phase + 1, hop - 1}}) {
        SCOPED_TRACE("T=" + std::to_string(phase) + " L=" +
                     std::to_string(hop) + " variant=" +
                     std::to_string(static_cast<int>(variant)) + " t=" +
                     std::to_string(t) + " l=" + std::to_string(l));
        const AssumptionReport report = monitor_assumptions(g, rounds, t, l);
        violated += report.violated_windows();
        expect_agrees(check_stable_head_set(g, rounds, t), report,
                      &WindowReport::head_set_stable, "Def. 2");
        expect_agrees(check_stable_hierarchy(g, rounds, t), report,
                      &WindowReport::hierarchy_stable, "Def. 4");
        expect_agrees(check_head_connectivity(g, rounds, t), report,
                      &WindowReport::head_connectivity, "Def. 5");
        expect_agrees(check_t_interval_l_hop(g, rounds, t, l), report,
                      &WindowReport::l_hop_ok, "Def. 7");

        // Def. 8 = Def. 4 ∧ Def. 7, with a Def. 4 failure reported first.
        const PropertyResult hinet = check_hinet(g, rounds, t, l);
        EXPECT_EQ(hinet.holds, report.clean()) << hinet.violation;
        const bool hierarchy_holds =
            check_stable_hierarchy(g, rounds, t).holds;
        expect_agrees(hinet, report,
                      hierarchy_holds ? &WindowReport::l_hop_ok
                                      : &WindowReport::hierarchy_stable,
                      "Def. 8");
        if (t == phase && l == hop && variant != Variant::kCrash) {
          EXPECT_TRUE(report.clean()) << report.to_string();
        }
      }
    }
  }
  EXPECT_GT(violated, 0u) << "the sweep must exercise failing windows";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertifierAgreement,
                         ::testing::Range<std::uint64_t>(0, 4));

}  // namespace
}  // namespace hinet
