#include "graph/mobility.hpp"

#include <cmath>
#include <numbers>
#include <utility>

namespace hinet {

namespace {

struct WaypointState {
  gen::Point2D target;
  double speed = 0.0;
  std::size_t pause_left = 0;
};

double dist(const gen::Point2D& a, const gen::Point2D& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

void reflect_into_unit_square(double& coord, double& step) {
  if (coord < 0.0) {
    coord = -coord;
    step = -step;
  } else if (coord > 1.0) {
    coord = 2.0 - coord;
    step = -step;
  }
}

/// Manhattan state: travelling from intersection `from` to adjacent
/// intersection `to` on a streets x streets grid.
struct ManhattanState {
  std::size_t from_x = 0, from_y = 0;
  std::size_t to_x = 0, to_y = 0;
  double progress = 0.0;  ///< fraction of the street segment covered
  double speed = 0.0;     ///< segment fraction per round
};

gen::Point2D manhattan_position(const ManhattanState& s, std::size_t streets) {
  const double step = 1.0 / static_cast<double>(streets - 1);
  const double fx = static_cast<double>(s.from_x) * step;
  const double fy = static_cast<double>(s.from_y) * step;
  const double tx = static_cast<double>(s.to_x) * step;
  const double ty = static_cast<double>(s.to_y) * step;
  return {fx + (tx - fx) * s.progress, fy + (ty - fy) * s.progress};
}

void manhattan_pick_next(ManhattanState& s, std::size_t streets, Rng& rng) {
  s.from_x = s.to_x;
  s.from_y = s.to_y;
  // Adjacent intersections on the grid.
  std::vector<std::pair<std::size_t, std::size_t>> options;
  if (s.from_x > 0) options.push_back({s.from_x - 1, s.from_y});
  if (s.from_x + 1 < streets) options.push_back({s.from_x + 1, s.from_y});
  if (s.from_y > 0) options.push_back({s.from_x, s.from_y - 1});
  if (s.from_y + 1 < streets) options.push_back({s.from_x, s.from_y + 1});
  const auto pick = options[rng.below(options.size())];
  s.to_x = pick.first;
  s.to_y = pick.second;
  s.progress = 0.0;
}

}  // namespace

namespace detail {

/// Advances the mobility simulation one round at a time.  Both the
/// materialized MobilityTrace and the streaming MobilityNetwork run this
/// stepper, so their position (and hence graph) sequences are identical
/// draw for draw.
class MobilityStepper {
 public:
  explicit MobilityStepper(const MobilityConfig& cfg) : cfg_(cfg) {
    HINET_REQUIRE(cfg.nodes >= 1, "mobility needs nodes");
    HINET_REQUIRE(cfg.rounds >= 1, "trace needs at least one round");
    HINET_REQUIRE(cfg.min_speed <= cfg.max_speed, "speed range inverted");
    if (cfg.model == MobilityModel::kManhattan) {
      HINET_REQUIRE(cfg.streets >= 2, "Manhattan grid needs >= 2 streets");
    }
    reset();
  }

  void reset() {
    rng_.reseed(cfg_.seed);
    round_ = 0;
    pos_.clear();
    waypoint_.clear();
    manhattan_.clear();
  }

  /// Positions of the next round (round 0 first); advances the state.
  const std::vector<gen::Point2D>& step() {
    if (round_ == 0) {
      init_round_zero();
    } else {
      advance_one_round();
    }
    ++round_;
    return pos_;
  }

  const std::vector<gen::Point2D>& positions() const { return pos_; }

 private:
  void init_round_zero() {
    if (cfg_.model == MobilityModel::kManhattan) {
      manhattan_.assign(cfg_.nodes, ManhattanState{});
      pos_.resize(cfg_.nodes);
      const double segment = 1.0 / static_cast<double>(cfg_.streets - 1);
      for (std::size_t i = 0; i < cfg_.nodes; ++i) {
        manhattan_[i].to_x = rng_.below(cfg_.streets);
        manhattan_[i].to_y = rng_.below(cfg_.streets);
        // speed is expressed in unit-square distance; convert to segment
        // fraction per round.
        manhattan_[i].speed =
            rng_.uniform_real(cfg_.min_speed, cfg_.max_speed) / segment;
        manhattan_pick_next(manhattan_[i], cfg_.streets, rng_);
        pos_[i] = manhattan_position(manhattan_[i], cfg_.streets);
      }
      return;
    }
    pos_ = gen::random_points(cfg_.nodes, rng_);
    if (cfg_.model == MobilityModel::kRandomWaypoint) {
      waypoint_.assign(cfg_.nodes, WaypointState{});
      for (auto& s : waypoint_) {
        s.target = {rng_.uniform01(), rng_.uniform01()};
        s.speed = rng_.uniform_real(cfg_.min_speed, cfg_.max_speed);
      }
    }
  }

  void advance_one_round() {
    switch (cfg_.model) {
      case MobilityModel::kManhattan: {
        for (std::size_t i = 0; i < cfg_.nodes; ++i) {
          auto& s = manhattan_[i];
          s.progress += s.speed;
          while (s.progress >= 1.0) {
            const double excess = s.progress - 1.0;
            manhattan_pick_next(s, cfg_.streets, rng_);
            s.progress = excess;
          }
          pos_[i] = manhattan_position(s, cfg_.streets);
        }
        return;
      }
      case MobilityModel::kRandomWaypoint: {
        for (std::size_t i = 0; i < cfg_.nodes; ++i) {
          auto& p = pos_[i];
          auto& s = waypoint_[i];
          if (s.pause_left > 0) {
            --s.pause_left;
            continue;
          }
          const double d = dist(p, s.target);
          if (d <= s.speed) {
            p = s.target;
            s.pause_left = cfg_.pause_rounds;
            s.target = {rng_.uniform01(), rng_.uniform01()};
            s.speed = rng_.uniform_real(cfg_.min_speed, cfg_.max_speed);
          } else {
            p.x += (s.target.x - p.x) / d * s.speed;
            p.y += (s.target.y - p.y) / d * s.speed;
          }
        }
        return;
      }
      case MobilityModel::kRandomWalk: {
        for (std::size_t i = 0; i < cfg_.nodes; ++i) {
          const double step = rng_.uniform_real(cfg_.min_speed, cfg_.max_speed);
          const double angle = rng_.uniform_real(0.0, 2.0 * std::numbers::pi);
          double dx = step * std::cos(angle);
          double dy = step * std::sin(angle);
          pos_[i].x += dx;
          pos_[i].y += dy;
          reflect_into_unit_square(pos_[i].x, dx);
          reflect_into_unit_square(pos_[i].y, dy);
        }
        return;
      }
    }
  }

  MobilityConfig cfg_;
  Rng rng_;
  Round round_ = 0;  ///< next round the stepper will produce
  std::vector<gen::Point2D> pos_;
  std::vector<WaypointState> waypoint_;
  std::vector<ManhattanState> manhattan_;
};

}  // namespace detail

MobilityNetwork::MobilityNetwork(const MobilityConfig& cfg)
    : StreamingNetwork(cfg.nodes, cfg.rounds),
      cfg_(cfg),
      stepper_(std::make_unique<detail::MobilityStepper>(cfg)) {}

MobilityNetwork::~MobilityNetwork() = default;

const std::vector<gen::Point2D>& MobilityNetwork::current_positions() const {
  return stepper_->positions();
}

Graph MobilityNetwork::synthesize_next() {
  return gen::geometric(stepper_->step(), cfg_.radius);
}

void MobilityNetwork::reset_generator() { stepper_->reset(); }

MobilityTrace::MobilityTrace(const MobilityConfig& cfg)
    : positions_([&] {
        detail::MobilityStepper stepper(cfg);
        std::vector<std::vector<gen::Point2D>> all;
        all.reserve(cfg.rounds);
        for (Round r = 0; r < cfg.rounds; ++r) all.push_back(stepper.step());
        return all;
      }()),
      network_([&] {
        std::vector<Graph> rounds;
        rounds.reserve(positions_.size());
        for (const auto& p : positions_) {
          rounds.push_back(gen::geometric(p, cfg.radius));
        }
        return GraphSequence(std::move(rounds));
      }()) {}

const std::vector<gen::Point2D>& MobilityTrace::positions_at(Round r) const {
  if (r >= positions_.size()) return positions_.back();
  return positions_[r];
}

}  // namespace hinet
