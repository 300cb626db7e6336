// Fig. 11 reproduction: effect of the monitor interval lambda_MI on FSD
// accuracy and FB_Hadoop FCT, PARALEON vs naive Elastic Sketch.
//
// Reproduced shape: PARALEON stays at/near 100% accuracy across
// millisecond-scale intervals; naive Elastic Sketch improves with longer
// intervals (more bytes per interval clear tau) but stays below PARALEON.
// Smaller intervals help PARALEON's FCT (fresher guidance).
//
// The runs are the interval x scheme grid of scenarios/fig11_interval.json;
// each table row is one interval, naive sketch then PARALEON.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;

struct Result {
  double mi_ms = 0;
  double accuracy = 0;
  double fct_avg = 0;
};

int run() {
  const scenario::Scenario sc =
      load_bench_scenario(g_cli, "fig11_interval.json");
  print_header("Fig. 11: monitor interval vs FSD accuracy and FCT",
               scaling_note(scenario::to_experiment_config(sc),
                            "FB_Hadoop @" +
                                fmt(100 * sc.workload.front().load, 0) +
                                "%, " + fmt(sc.duration_ms, 0) +
                                " ms per cell"));
  std::printf("%-10s | %-24s | %-24s\n", "", "accuracy", "FCT avg slowdown");
  std::printf("%-10s | %-12s %-12s | %-12s %-12s\n", "lambda_MI",
              "ElasticSk", "PARALEON", "ElasticSk", "PARALEON");
  std::vector<Result> results(scenario::expand_grid(sc).size());
  scenario::GridOptions opts;
  opts.on_cell = [&results](const scenario::GridCell& cell, Experiment& exp) {
    results[cell.index] = {to_ms(exp.config().controller.mi),
                           exp.mean_fsd_accuracy(),
                           stats::mean(exp.fct().slowdowns(0, 1ll << 40))};
  };
  const auto report = [&results](const scenario::GridOutcome&) {
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
      const Result& es = results[i];
      const Result& pl = results[i + 1];
      std::printf("%-8.1fms | %-12.3f %-12.3f | %-12.2f %-12.2f\n", es.mi_ms,
                  es.accuracy, pl.accuracy, es.fct_avg, pl.fct_avg);
    }
    return 0;
  };
  return run_bench_grid(g_cli, sc, std::move(opts), report);
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(
      argc, argv, kGridCheck, &g_cli, "fig11_interval",
      "\nPaper Fig. 11 shape: PARALEON accuracy ~100% at every interval;\n"
      "naive sketch accuracy rises with the interval but stays below;\n"
      "PARALEON FCT <= naive-sketch FCT throughout.\n",
      [](TrendReport&) { return run(); });
}
