// Fig. 10 reproduction: monitoring-design comparison.
//
// (a) Flow-size-distribution accuracy vs traffic load for No-FSD, NetFlow
//     (1:100 sampling, 1 s export), naive Elastic Sketch (per-interval,
//     no control plane, no TOS dedup) and PARALEON.
// (b) FB_Hadoop FCT under each monitoring scheme (all drive the same SA).
// Reproduced shape: PARALEON's accuracy is the highest at every load and
// its FCT the best, because the FSD steers SA mutation.
//
// (a) is the scheme x load grid of scenarios/fig10_accuracy.json, (b) the
// scheme grid of scenarios/fig10_fct.json. No_FSD has no FSD to score, so
// its (a) row prints n/a without running.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;

int run() {
  const scenario::Scenario acc =
      load_bench_scenario(g_cli, "fig10_accuracy.json");
  const scenario::Scenario fct = load_bench_scenario(g_cli, "fig10_fct.json");
  print_header("Fig. 10: monitoring designs — FSD accuracy and FCT",
               scaling_note(scenario::to_experiment_config(acc),
                            "FB_Hadoop, " + fmt(acc.duration_ms, 0) +
                                " ms; NetFlow: 1:100 sampling, 1 s export "
                                "(stale at ms scale)"));
  // (a): one row per scheme, one column per load (the inner axis).
  // RNIC_counters is this repo's extra row: the §V "relaxation" where the
  // monitor reads hypothetical per-QP RNIC counters instead of switch
  // sketches (exact, no programmable switches needed).
  const std::vector<scenario::Json>& loads = acc.sweep.back().values;
  std::printf("\n(a) FSD accuracy vs load\n%-16s", "scheme");
  for (const scenario::Json& l : loads) std::printf("  load=%.1f", l.as_double());
  std::printf("\n%-16s", "No_FSD");
  for (std::size_t i = 0; i < loads.size(); ++i) std::printf("%10s", "n/a");
  std::printf("\n");
  const auto accuracy = [n = loads.size()](const scenario::GridCell& cell,
                                           Experiment& exp) {
    char buf[64];
    const std::size_t col = cell.index % n;
    std::snprintf(buf, sizeof buf, "%-*s%10.3f%s", col == 0 ? 16 : 0,
                  col == 0 ? cell_scheme(cell).c_str() : "",
                  exp.mean_fsd_accuracy(), col + 1 == n ? "\n" : "");
    return std::string(buf);
  };
  if (const int rc = run_row_grid(g_cli, acc, accuracy); rc != 0) return rc;
  // (b): a longer horizon so the closed loop converges (cf. Fig. 7).
  std::printf("\n(b) FCT slowdown @load=%.1f, %.0f ms\n%-16s %-12s %-12s\n",
              fct.workload.front().load, fct.duration_ms, "scheme",
              "mice_avg", "eleph_avg");
  return run_row_grid(
      g_cli, fct, [](const scenario::GridCell& cell, Experiment& exp) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%-16s %-12.2f %-12.2f\n",
                      cell_scheme(cell).c_str(),
                      stats::mean(exp.fct().slowdowns(0, 1 << 20)),
                      stats::mean(exp.fct().slowdowns(1 << 20, 1ll << 40)));
        return std::string(buf);
      });
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(
      argc, argv, kGridCheck, &g_cli, "fig10_monitoring",
      "\nPaper Fig. 10 shape: accuracy PARALEON > ElasticSketch > NetFlow\n"
      "at every load; FCT follows the same order with No_FSD worst.\n",
      [](TrendReport&) { return run(); });
}
