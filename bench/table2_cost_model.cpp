// Reproduces Table 2: the analytic time/communication cost of the four
// dynamics models, printed both symbolically and evaluated across a
// parameter grid, with the Table 2 ordering and row labels.
#include "common.hpp"

using namespace hinet;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const bool csv = args.get_bool("csv", false, "also emit CSV to stdout");

  return bench::run_main(args, "Table 2 — analytic cost model", [&] {
    std::cout << "=== Table 2: Performance of Different Algorithms ===\n\n";
    std::cout << "Symbolic forms (paper, Section V):\n";
    TextTable sym({"Network model", "Time (rounds)", "Comm (tokens)"});
    sym.add("(k+aL)-interval connected [7]", "ceil(n0/(aL)) * (k+aL)",
            "ceil(n0/(2a)) * n0 * k");
    sym.add("(k+aL, L)-HiNet", "(ceil(th/a)+1) * (k+aL)",
            "(ceil(th/a)+1)(n0-nm)k + nm*nr*k");
    sym.add("1-interval connected [7]", "n0 - 1", "(n0-1) * n0 * k");
    sym.add("(1, L)-HiNet", "n0 - 1", "(n0-1)(n0-nm)k + nm*nr*k");
    std::cout << sym << '\n';

    struct GridPoint {
      const char* label;
      CostParams p;
    };
    const GridPoint grid[] = {
        {"paper (Table 3, nr=3)", table3_params_hinet_interval()},
        {"paper (Table 3, nr=10)", table3_params_hinet_one()},
        {"small", {50, 10, 25, 2, 4, 2, 2}},
        {"medium", {200, 40, 100, 4, 16, 5, 2}},
        {"large", {400, 60, 220, 5, 32, 8, 3}},
        {"dense-heads", {100, 50, 30, 5, 8, 5, 2}},
    };

    CsvWriter csv_out({"grid", "model", "time_rounds", "comm_tokens"});
    for (const auto& gp : grid) {
      std::cout << "Evaluated at " << gp.label << ": n0=" << gp.p.n0
                << " theta=" << gp.p.theta << " nm=" << gp.p.n_m
                << " nr=" << gp.p.n_r << " k=" << gp.p.k
                << " alpha=" << gp.p.alpha << " L=" << gp.p.l << '\n';
      TextTable t({"Network model", "Time (rounds)", "Comm (tokens)"});
      for (const CostRow& row : evaluate_table2(gp.p)) {
        t.add(row.model, row.time, row.comm);
        csv_out.row(gp.label, row.model, row.time, row.comm);
      }
      std::cout << t << '\n';
    }
    if (csv) std::cout << "CSV:\n" << csv_out.content();
  });
} catch (const std::invalid_argument& e) {
  return bench::usage_error(e);
}
