// Manhattan-grid mobility.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/mobility.hpp"

namespace hinet {
namespace {

bool on_a_street(const gen::Point2D& p, std::size_t streets, double eps) {
  const double step = 1.0 / static_cast<double>(streets - 1);
  auto near_line = [&](double coord) {
    const double scaled = coord / step;
    return std::fabs(scaled - std::round(scaled)) < eps;
  };
  return near_line(p.x) || near_line(p.y);
}

TEST(Manhattan, PositionsStayOnStreets) {
  MobilityConfig cfg;
  cfg.nodes = 20;
  cfg.model = MobilityModel::kManhattan;
  cfg.streets = 5;
  cfg.rounds = 60;
  cfg.min_speed = 0.01;
  cfg.max_speed = 0.05;
  cfg.seed = 3;
  MobilityTrace trace(cfg);
  for (Round r = 0; r < 60; ++r) {
    for (const auto& p : trace.positions_at(r)) {
      EXPECT_GE(p.x, -1e-9);
      EXPECT_LE(p.x, 1.0 + 1e-9);
      EXPECT_GE(p.y, -1e-9);
      EXPECT_LE(p.y, 1.0 + 1e-9);
      EXPECT_TRUE(on_a_street(p, cfg.streets, 1e-6))
          << "round " << r << " (" << p.x << "," << p.y << ")";
    }
  }
}

TEST(Manhattan, NodesMoveBetweenIntersections) {
  MobilityConfig cfg;
  cfg.nodes = 8;
  cfg.model = MobilityModel::kManhattan;
  cfg.streets = 4;
  cfg.rounds = 40;
  cfg.min_speed = 0.02;
  cfg.max_speed = 0.04;
  cfg.seed = 7;
  MobilityTrace trace(cfg);
  const auto& p0 = trace.positions_at(0);
  const auto& p39 = trace.positions_at(39);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    if (std::fabs(p0[i].x - p39[i].x) + std::fabs(p0[i].y - p39[i].y) > 1e-6) {
      ++moved;
    }
  }
  EXPECT_EQ(moved, 8u);
}

TEST(Manhattan, StepDistanceRespectsSpeed) {
  MobilityConfig cfg;
  cfg.nodes = 6;
  cfg.model = MobilityModel::kManhattan;
  cfg.streets = 5;
  cfg.rounds = 30;
  cfg.min_speed = 0.01;
  cfg.max_speed = 0.03;
  cfg.seed = 11;
  MobilityTrace trace(cfg);
  for (Round r = 1; r < 30; ++r) {
    const auto& prev = trace.positions_at(r - 1);
    const auto& cur = trace.positions_at(r);
    for (std::size_t i = 0; i < 6; ++i) {
      // Manhattan (L1) distance per round is bounded by max_speed (a turn
      // mid-step preserves path length, not straight-line distance).
      const double d = std::fabs(prev[i].x - cur[i].x) +
                       std::fabs(prev[i].y - cur[i].y);
      EXPECT_LE(d, cfg.max_speed + 1e-9) << "round " << r << " node " << i;
    }
  }
}

TEST(Manhattan, DeterministicPerSeed) {
  MobilityConfig cfg;
  cfg.nodes = 10;
  cfg.model = MobilityModel::kManhattan;
  cfg.streets = 4;
  cfg.rounds = 20;
  cfg.seed = 5;
  MobilityTrace a(cfg);
  MobilityTrace b(cfg);
  for (Round r = 0; r < 20; ++r) {
    EXPECT_TRUE(a.network().graph_at(r) == b.network().graph_at(r));
  }
}

TEST(Manhattan, RejectsDegenerateGrid) {
  MobilityConfig cfg;
  cfg.nodes = 4;
  cfg.model = MobilityModel::kManhattan;
  cfg.streets = 1;
  cfg.rounds = 2;
  EXPECT_THROW(MobilityTrace{cfg}, PreconditionError);
}

}  // namespace
}  // namespace hinet
