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
// scale inner) and fans the cells through exec::parallel_map
// (`--jobs N`). The table's rows and columns are the grid's cells, in
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

struct CellSlot {
  double bw_gbps = 0;
  std::uint64_t events = 0;  // 0 unless --perf enabled the PerfMonitor
};

/// "Default", "Expert", "PARALEON": the row label and trend-name part.
std::string cell_scheme(const scenario::GridCell& cell) {
  return scheme_name(scenario::scheme_from_name(cell.scenario.scheme.name));
}

int cell_workers(const scenario::GridCell& cell) {
  return cell.scenario.workload.front().workers;
}

/// A cell opens a new table row when its scheme differs from the previous
/// cell's (the scheme axis is the outer one).
bool starts_row(const std::vector<scenario::GridCell>& cells, std::size_t i) {
  return i == 0 || cells[i].scenario.scheme.name !=
                       cells[i - 1].scenario.scheme.name;
}

void print_grid_header(const scenario::Scenario& sc,
                       const std::vector<scenario::GridCell>& cells) {
  print_header("Fig. 13: alltoall bandwidth vs collective scale",
               scaling_note(scenario::to_experiment_config(sc),
                            "8..32 workers, 512KB flows (paper: 8..32 H100 "
                            "nodes @400G testbed)"));
  std::printf("%-10s", "scheme");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0 && starts_row(cells, i)) break;  // one row's worth of columns
    const int n = cell_workers(cells[i]);
    std::printf("%8dx%-4d", n, n);
  }
  std::printf("\n");
}

/// Prints the scheme x scale table from cell-ordered slots and fills the
/// trend rows. Returns the total event count (0 unless --perf).
std::uint64_t print_grid(const std::vector<scenario::GridCell>& cells,
                         const std::vector<CellSlot>& slots,
                         TrendReport& trend) {
  std::uint64_t total_events = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string scheme = cell_scheme(cells[i]);
    if (starts_row(cells, i)) {
      std::printf("%s%-10s", i == 0 ? "" : "\n", scheme.c_str());
    }
    std::printf("%10.2f  ", slots[i].bw_gbps);
    trend.add("bw_" + scheme + "_" + std::to_string(cell_workers(cells[i])) +
                  "_gbps",
              slots[i].bw_gbps, "Gbps");
    total_events += slots[i].events;
  }
  std::printf("\n");
  return total_events;
}

int run_scenario_grid(const scenario::Scenario& sc) {
  const std::vector<scenario::GridCell> cells = scenario::expand_grid(sc);
  print_grid_header(sc, cells);

  std::vector<CellSlot> slots(cells.size());
  scenario::GridOptions opts;
  opts.jobs = g_cli.jobs;
  opts.on_config = [](const scenario::GridCell&, ExperimentConfig& cfg) {
    apply_obs_cli(g_cli, cfg);
  };
  opts.on_cell = [&slots](const scenario::GridCell& cell, Experiment& exp) {
    slots[cell.index].events =
        exp.simulator().obs().perf().events_executed();
  };
  obs::PoolTelemetry pool;
  opts.telemetry = &pool;
  const WallTimer wall;
  scenario::GridOutcome grid = scenario::run_grid(sc, opts);
  const double grid_seconds = wall.seconds();
  grid.set_wall_seconds(grid_seconds);
  // The scenario metric IS the table value: steady-tail mean goodput.
  for (std::size_t i = 0; i < grid.results().size(); ++i) {
    slots[i].bw_gbps = grid.results()[i].value;
  }

  TrendReport trend("fig13_alltoall_scale");
  const std::uint64_t total_events = print_grid(grid.cells(), slots, trend);
  if (total_events > 0) {
    trend.add("events_executed", static_cast<double>(total_events), "events");
  }
  trend.add("wall_seconds", grid_seconds, "s");
  trend.add("grid_wall_seconds", grid_seconds, "s");
  std::printf(
      "\nValues: mean aggregate goodput (Gbps) over the steady half of the\n"
      "run. Paper Fig. 13 shape: PARALEON >= max(Default, Expert) at every\n"
      "scale, by up to 19.5%%.\n");

  if (!write_trend(g_cli, trend)) return 2;
  return finish_grid(g_cli, sc, opts, grid, g_cli.grid_out);
}

}  // namespace

int main(int argc, char** argv) {
  g_cli = parse_obs_cli(argc, argv);
  if (strip_obs_cli(argc, argv) != 1) return obs_usage(argv);
  try {
    return run_scenario_grid(scenario::load_scenario_file(
        scenario_path("fig13_alltoall.json"), g_cli.tiny));
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 2;
  }
}
