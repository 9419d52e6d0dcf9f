#include "core/cost_model.hpp"

#include "util/require.hpp"

namespace hinet {

std::size_t ceil_div(std::size_t a, std::size_t b) {
  HINET_REQUIRE(b > 0, "division by zero");
  return (a + b - 1) / b;
}

std::size_t time_klo_interval(const CostParams& p) {
  return ceil_div(p.n0, p.alpha * p.l) * (p.k + p.alpha * p.l);
}

std::size_t comm_klo_interval(const CostParams& p) {
  return ceil_div(p.n0, 2 * p.alpha) * p.n0 * p.k;
}

std::size_t time_hinet_interval(const CostParams& p) {
  return (ceil_div(p.theta, p.alpha) + 1) * (p.k + p.alpha * p.l);
}

std::size_t comm_hinet_interval(const CostParams& p) {
  HINET_REQUIRE(p.n_m <= p.n0, "n_m exceeds n0");
  return (ceil_div(p.theta, p.alpha) + 1) * (p.n0 - p.n_m) * p.k +
         p.n_m * p.n_r * p.k;
}

std::size_t time_klo_one(const CostParams& p) {
  HINET_REQUIRE(p.n0 >= 1, "empty network");
  return p.n0 - 1;
}

std::size_t comm_klo_one(const CostParams& p) {
  HINET_REQUIRE(p.n0 >= 1, "empty network");
  return (p.n0 - 1) * p.n0 * p.k;
}

std::size_t time_hinet_one(const CostParams& p) {
  HINET_REQUIRE(p.n0 >= 1, "empty network");
  return p.n0 - 1;
}

std::size_t comm_hinet_one(const CostParams& p) {
  HINET_REQUIRE(p.n0 >= 1 && p.n_m <= p.n0, "bad parameters");
  return (p.n0 - 1) * (p.n0 - p.n_m) * p.k + p.n_m * p.n_r * p.k;
}

std::size_t alg1_min_phase_length(const CostParams& p) {
  return p.k + p.alpha * p.l;
}

std::size_t alg1_phase_count(const CostParams& p) {
  return ceil_div(p.theta, p.alpha) + 1;
}

std::size_t alg2_round_count(const CostParams& p) {
  HINET_REQUIRE(p.n0 >= 1, "empty network");
  return p.n0 - 1;
}

std::size_t klo_phase_count(const CostParams& p) {
  return ceil_div(p.n0, p.alpha * p.l);
}

std::vector<CostRow> evaluate_table2(const CostParams& p) {
  return {
      {"(k+aL)-interval connected [7]", time_klo_interval(p),
       comm_klo_interval(p)},
      {"(k+aL, L)-HiNet", time_hinet_interval(p), comm_hinet_interval(p)},
      {"1-interval connected [7]", time_klo_one(p), comm_klo_one(p)},
      {"(1, L)-HiNet", time_hinet_one(p), comm_hinet_one(p)},
  };
}

CostParams table3_params_hinet_interval() {
  CostParams p;
  p.n0 = 100;
  p.theta = 30;
  p.n_m = 40;
  p.n_r = 3;
  p.k = 8;
  p.alpha = 5;
  p.l = 2;
  return p;
}

CostParams table3_params_hinet_one() {
  CostParams p = table3_params_hinet_interval();
  p.n_r = 10;
  return p;
}

std::vector<CostRow> evaluate_table3() {
  const CostParams interval = table3_params_hinet_interval();
  const CostParams one = table3_params_hinet_one();
  return {
      {"(k+aL)-interval connected [7]", time_klo_interval(interval),
       comm_klo_interval(interval)},
      {"(k+aL, L)-HiNet", time_hinet_interval(interval),
       comm_hinet_interval(interval)},
      {"1-interval connected [7]", time_klo_one(one), comm_klo_one(one)},
      {"(1, L)-HiNet", time_hinet_one(one), comm_hinet_one(one)},
  };
}

}  // namespace hinet
