// Analytic performance model of Section V (Tables 2 and 3).
//
// Time cost is in rounds; communication cost is the total number of tokens
// sent ("total size of packets").  The four rows of Table 2:
//
//   model                       time                        communication
//   (k+αL)-interval conn. [7]   ⌈n0/(αL)⌉·(k+αL)            ⌈n0/(2α)⌉·n0·k
//   (k+αL, L)-HiNet             (⌈θ/α⌉+1)·(k+αL)            (⌈θ/α⌉+1)(n0−n_m)k + n_m·n_r·k
//   1-interval connected [7]    n0−1                        (n0−1)·n0·k
//   (1, L)-HiNet                n0−1                        (n0−1)(n0−n_m)k + n_m·n_r·k
//
// Note: the paper's Table 3 prints 51680 for the (1,L)-HiNet row, but the
// row's own formula with the stated parameters gives 50720; we reproduce
// the formula (see EXPERIMENTS.md).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hinet {

/// The notation of Table 1.
struct CostParams {
  std::size_t n0 = 0;     ///< total nodes
  std::size_t theta = 0;  ///< upper bound on cluster-head count
  std::size_t n_m = 0;    ///< average cluster members per round
  std::size_t n_r = 0;    ///< average re-affiliations per member
  std::size_t k = 0;      ///< tokens to disseminate
  std::size_t alpha = 1;  ///< the coefficient α (any positive integer)
  std::size_t l = 1;      ///< L-hop cluster-head connectivity
};

/// Ceiling division helper used throughout the formulas.
std::size_t ceil_div(std::size_t a, std::size_t b);

// --- Row 1: KLO algorithm under (k+αL)-interval connectivity -------------
std::size_t time_klo_interval(const CostParams& p);
std::size_t comm_klo_interval(const CostParams& p);

// --- Row 2: Algorithm 1 on (k+αL, L)-HiNet --------------------------------
std::size_t time_hinet_interval(const CostParams& p);
std::size_t comm_hinet_interval(const CostParams& p);

// --- Row 3: KLO token forwarding under 1-interval connectivity -----------
std::size_t time_klo_one(const CostParams& p);
std::size_t comm_klo_one(const CostParams& p);

// --- Row 4: Algorithm 2 on (1, L)-HiNet -----------------------------------
std::size_t time_hinet_one(const CostParams& p);
std::size_t comm_hinet_one(const CostParams& p);

// --- Derived algorithm schedule parameters --------------------------------

/// Theorem 1's phase-length requirement T >= k + α·L.
std::size_t alg1_min_phase_length(const CostParams& p);

/// Theorem 1's phase count M >= ⌈θ/α⌉ + 1.
std::size_t alg1_phase_count(const CostParams& p);

/// Theorem 2: Algorithm 2 terminates within n0 - 1 rounds.
std::size_t alg2_round_count(const CostParams& p);

/// KLO pipeline schedule under T-interval connectivity: ⌈n0/(αL)⌉ phases of
/// k + αL rounds (the instantiation the paper compares against).
std::size_t klo_phase_count(const CostParams& p);

/// One evaluated table row.
struct CostRow {
  std::string model;
  std::size_t time = 0;
  std::size_t comm = 0;
};

/// All four rows of Table 2 evaluated at `p` (paper ordering).
std::vector<CostRow> evaluate_table2(const CostParams& p);

/// The Table 3 parameter set: n0=100, θ=30, n_m=40, k=8, α=5, L=2, with
/// n_r=3 for the (T,L) rows and n_r=10 for the (1,L) rows.
CostParams table3_params_hinet_interval();  ///< n_r = 3
CostParams table3_params_hinet_one();       ///< n_r = 10

/// The four Table 3 rows with the per-row n_r convention above.
std::vector<CostRow> evaluate_table3();

}  // namespace hinet
