// Fig. 13 reproduction (testbed experiment, simulated): average alltoall
// bandwidth vs number of workers for Default / Expert / PARALEON.
//
// Paper: NCCL alltoall on 8..32 H100 nodes at 400G, 30 ms monitor
// interval; PARALEON beats both static settings by up to 19.5%.
// Reproduced shape: PARALEON adapts to each collective scale and matches
// or beats the better static preset at every scale.
//
// The scheme x scale grid comes from scenarios/fig13_alltoall.json: the
// scenario engine's GridRunner expands the two sweep axes (scheme outer,
// scale inner) and fans the cells out over `--jobs N` workers. The table's rows and columns are the grid's cells, in
// cell order, so it is identical at any worker count. tests/
// scenario_golden_test.cpp pins the 8-worker cells' --tiny run_digests.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;

/// The scheme x scale table: one row per scheme (the outer axis), one
/// column per scale; each value is the cell's metric, the steady-tail
/// mean goodput.
int run(TrendReport& trend) {
  const scenario::Scenario sc =
      load_bench_scenario(g_cli, "fig13_alltoall.json");
  print_header("Fig. 13: alltoall bandwidth vs collective scale",
               scaling_note(scenario::to_experiment_config(sc),
                            "8..32 workers, 512KB flows (paper: 8..32 H100 "
                            "nodes @400G testbed)"));
  const std::size_t n_scales = sc.sweep.back().values.size();
  std::printf("%-10s", "scheme");
  for (const scenario::Json& v : sc.sweep.back().values) {
    const int n = static_cast<int>(v.as_int64());
    std::printf("%8dx%-4d", n, n);
  }
  std::printf("\n");
  // Per-cell event counts, 0 unless --perf enabled the PerfMonitor.
  std::vector<std::uint64_t> events(scenario::expand_grid(sc).size());
  scenario::GridOptions opts;
  opts.on_cell = [&events](const scenario::GridCell& cell, Experiment& exp) {
    events[cell.index] = exp.simulator().obs().perf().events_executed();
  };
  const auto report = [&](const scenario::GridOutcome& grid) {
    std::uint64_t total_events = 0;
    for (std::size_t i = 0; i < grid.cells().size(); ++i) {
      const scenario::GridCell& cell = grid.cells()[i];
      const std::string scheme = cell_scheme(cell);
      if (i % n_scales == 0) {
        std::printf("%s%-10s", i == 0 ? "" : "\n", scheme.c_str());
      }
      const double bw = grid.results()[i].value;
      std::printf("%10.2f  ", bw);
      trend.add("bw_" + scheme + "_" +
                    std::to_string(cell.scenario.workload.front().workers) +
                    "_gbps",
                bw, "Gbps");
      total_events += events[i];
    }
    std::printf("\n");
    if (total_events > 0) {
      trend.add("events_executed", static_cast<double>(total_events),
                "events");
    }
    trend.add("grid_wall_seconds", grid.wall_seconds(), "s");
    return 0;
  };
  return run_bench_grid(g_cli, sc, std::move(opts), report, g_cli.grid_out);
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(
      argc, argv, kGridCheck | kGridOut, &g_cli, "fig13_alltoall_scale",
      "\nValues: mean aggregate goodput (Gbps) over the steady half of the\n"
      "run. Paper Fig. 13 shape: PARALEON >= max(Default, Expert) at every\n"
      "scale, by up to 19.5%.\n",
      run);
}
