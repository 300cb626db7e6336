// Fig. 7 reproduction: FCT performance of five tuning schemes.
//
// (a)(b) FB_Hadoop @30% load: average and p99.9 FCT slowdown per flow-size
//        band, for Default / Expert / ACC / DCQCN+ / PARALEON.
// (c)(d) LLM alltoall: FCT CDF at two collective scales.
// Reproduced shape: PARALEON at or near the best on mice AND elephants;
// the single-mechanism baselines (ACC: switch-only, DCQCN+: RNIC-only)
// land between Default and PARALEON.
//
// The runs are the grids of scenarios/fig7_fct_fb_hadoop.json (scheme
// axis) and scenarios/fig7_fct_alltoall.json (scale x scheme). Each cell
// formats its table row on the worker thread; rows print in cell order,
// so the tables are identical at any --jobs.
#include <cstdio>
#include <string>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;

std::string fb_hadoop_row(const scenario::GridCell& cell, Experiment& exp) {
  const auto band = [&](std::int64_t lo, std::int64_t hi) {
    return exp.fct().slowdowns(lo, hi);
  };
  const auto small = band(0, 120 << 10);
  const auto mid = band(120 << 10, 1 << 20);
  const auto big = band(1 << 20, 1ll << 40);
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%-10s %5zu/%-5zu | %-10.2f %-10.2f | %-10.2f %-10.2f | %-10.2f "
      "%-10.2f\n",
      cell_scheme(cell).c_str(), exp.fct().finished(), exp.fct().started(),
      stats::mean(small), stats::quantile(small, 0.999), stats::mean(mid),
      stats::quantile(mid, 0.999), stats::mean(big),
      stats::quantile(big, 0.999));
  return buf;
}

/// Completed rounds of the cell's one alltoall component.
int rounds_completed(const Experiment& exp) {
  for (const auto& w : exp.workloads()) {
    if (const auto* a2a =
            dynamic_cast<const workload::AlltoallWorkload*>(w.get())) {
      return a2a->rounds_completed();
    }
  }
  return 0;
}

/// One alltoall row; the first scheme of each scale opens its table.
std::string llm_row(const scenario::Scenario& sc,
                    const scenario::GridCell& cell, Experiment& exp) {
  char buf[256] = "";
  int n = 0;
  if (cell.scenario.scheme.name ==
      sc.sweep.back().values.front().as_string()) {
    const scenario::WorkloadComponent& a2a = cell.scenario.workload.front();
    n = std::snprintf(buf, sizeof buf,
                      "\n(c)(d) LLM alltoall FCT CDF, %d workers, %.0fKB "
                      "flows\n%-10s %-10s %-10s %-10s %-10s %-10s\n",
                      a2a.workers, a2a.flow_kb, "scheme", "p50_ms", "p90_ms",
                      "p99_ms", "max_ms", "rounds");
  }
  auto fcts = exp.fct().fct_seconds(0, 1ll << 40);
  for (auto& f : fcts) f *= 1e3;  // ms
  std::snprintf(buf + n, sizeof buf - n,
                "%-10s %-10.2f %-10.2f %-10.2f %-10.2f %-10d\n",
                cell_scheme(cell).c_str(), stats::quantile(fcts, 0.5),
                stats::quantile(fcts, 0.9), stats::quantile(fcts, 0.99),
                stats::quantile(fcts, 1.0), rounds_completed(exp));
  return buf;
}

int run() {
  const scenario::Scenario fb =
      load_bench_scenario(g_cli, "fig7_fct_fb_hadoop.json");
  const scenario::Scenario llm =
      load_bench_scenario(g_cli, "fig7_fct_alltoall.json");
  print_header("Fig. 7: FCT of 5 tuning schemes (FB_Hadoop + LLM alltoall)",
               scaling_note(scenario::to_experiment_config(fb),
                            "alltoall cells run " + fmt(llm.duration_ms, 0) +
                                " ms, flows scaled (paper: 128 hosts @100G "
                                "NS3, seconds-long runs)"));
  // Load is defined on host uplinks; with the 4:1 core and ~87% of pairs
  // cross-rack, 20% host load puts the fabric at ~70% — the paper's "30%"
  // regime relative to its core (see the scaling note).
  std::printf("\n(a)(b) FB_Hadoop @20%% host load, 64 hosts, 700 ms\n");
  std::printf("%-10s %-7s | %-21s | %-21s | %-21s\n", "", "",
              "<120KB", "120KB-1MB", ">=1MB");
  std::printf("%-10s %-7s | %-10s %-10s | %-10s %-10s | %-10s %-10s\n",
              "scheme", "flows", "avg", "p99.9", "avg", "p99.9", "avg",
              "p99.9");
  if (const int rc = run_row_grid(g_cli, fb, fb_hadoop_row); rc != 0) {
    return rc;
  }
  return run_row_grid(
      g_cli, llm, [&llm](const scenario::GridCell& cell, Experiment& exp) {
        return llm_row(llm, cell, exp);
      });
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(
      argc, argv, kGridCheck, &g_cli, "fig7_fct",
      "\nPaper Fig. 7 shape: PARALEON's avg FCT beats the baselines by\n"
      ">=3.8% on mice and up to 61.4% on elephants (a,b), and its tail\n"
      "FCT at both alltoall scales improves up to 54.5% (c,d). Expect\n"
      "PARALEON ahead of Default/ACC/DCQCN+ here; the scaled Expert preset\n"
      "is a strong static baseline at this fabric scale (see\n"
      "EXPERIMENTS.md).\n",
      [](TrendReport&) { return run(); });
}
