// paraleon_run: execute any scenarios/*.json file through the scenario
// engine — the generic front door the per-figure benches specialize.
//
//   paraleon_run scenarios/mixed_multitenant.json --tiny --jobs 4
//
// A scenario WITHOUT a sweep section runs as one experiment with the full
// single-run observability surface (--trace per-run dumps, --flight
// anomaly bundles, --perf event-loop economics). A scenario WITH a sweep
// runs the whole cross-product through the GridRunner and writes one
// paraleon.grid.v1 document (default <obs-out>/<name>.grid.json, override
// with --grid-out) plus the worker-pool Perfetto timeline next to it
// (<name>.grid.timeline.json); --grid-check re-runs the grid serially and
// byte-compares the deterministic half, and --perf-out writes a
// paraleon.bench.v1 document with the grid's wall time and per-cell
// metric values. A seed sweep is a grid with a `seed` axis. --grid-out or
// --grid-check run a sweep-less scenario as a one-cell grid.
// Per-run artifacts (--trace/--flight) are rejected in grid mode: cells
// run concurrently and would collide on the output files.
//
// Table II is `paraleon_run scenarios/table2_alltoall_presets.json`: its
// grid prints the Default/Expert algbw per message size.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "scenario/grid_runner.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;

int run_single(const scenario::Scenario& sc) {
  ExperimentConfig cfg = scenario::to_experiment_config(sc);
  apply_obs_cli(g_cli, cfg);
  Experiment exp(cfg);
  scenario::FlowScheduler flows(sc, &exp);
  flows.install_all();
  if (sc.scheme.force_trigger && exp.controller() != nullptr) {
    exp.controller()->force_trigger();
  }
  print_header("scenario: " + sc.name,
               scaling_note(cfg, sc.description.empty() ? "scenario run"
                                                        : sc.description));
  const WallTimer wall;
  exp.run();
  const double seconds = wall.seconds();
  const double value = scenario::evaluate_metric(sc, exp);
  std::printf("%-24s %14s %18s\n", "metric", "value", "digest");
  std::printf("%-24s %14.4f %18llx\n", sc.metric.name.c_str(), value,
              static_cast<unsigned long long>(run_digest(exp)));
  std::printf("# run: %llu events in %.2fs wall\n",
              static_cast<unsigned long long>(run_meta(exp).events_executed),
              seconds);
  if (!exp.flight_bundle_dir().empty()) {
    std::printf("# flight bundle: %s\n", exp.flight_bundle_dir().c_str());
  }
  if (!dump_obs(g_cli, exp, sc.name)) return 2;
  TrendReport trend(sc.name);
  trend.add("metric_" + sc.metric.name, value);
  trend.add("fct_finished", static_cast<double>(exp.fct().finished()),
            "flows");
  add_perf_metrics(trend, exp);
  return write_trend(g_cli, trend) ? 0 : 2;
}

int run_grid_mode(const scenario::Scenario& sc) {
  if (g_cli.trace || g_cli.flight || g_cli.flight_fault) {
    std::fprintf(stderr,
                 "paraleon_run: --trace/--flight are per-run artifacts; a "
                 "grid runs cells concurrently and they would collide. Run "
                 "the interesting cell as its own sweep-less scenario.\n");
    return 2;
  }
  print_header("scenario grid: " + sc.name,
               scaling_note(scenario::to_experiment_config(sc),
                            sc.description.empty() ? "scenario grid"
                                                   : sc.description));
  const auto report = [&sc](const scenario::GridOutcome& grid) {
    std::printf("%-5s %-44s %14s %18s\n", "cell", "coords",
                sc.metric.name.c_str(), "digest");
    for (std::size_t i = 0; i < grid.results().size(); ++i) {
      const scenario::CellResult& r = grid.results()[i];
      std::printf("%-5zu %-44s %14.4f %18llx\n", r.index,
                  grid.cells()[i].coords_label().c_str(), r.value,
                  static_cast<unsigned long long>(r.digest));
    }
    std::printf("# grid: %zu cells in %.2fs wall (jobs=%d)\n",
                grid.results().size(), grid.wall_seconds(), g_cli.jobs);

    TrendReport trend(sc.name);
    trend.add("grid_wall_seconds", grid.wall_seconds(), "s");
    trend.add("grid_cells", static_cast<double>(grid.results().size()),
              "cells");
    for (const auto& r : grid.results()) {
      trend.add("cell" + std::to_string(r.index) + "_" + sc.metric.name,
                r.value);
    }
    return write_trend(g_cli, trend) ? 0 : 2;
  };
  const std::string grid_path = g_cli.grid_out.empty()
                                    ? g_cli.out_dir + "/" + sc.name +
                                          ".grid.json"
                                    : g_cli.grid_out;
  return run_bench_grid(g_cli, sc, {}, report, grid_path);
}

}  // namespace

int main(int argc, char** argv) {
  const int rest = strip_obs_cli(argc, argv, &g_cli);
  if (rest != 2 || argv[1][0] == '-') {
    // The stray argument: a leading flag, or whatever follows the file.
    const char* stray =
        rest < 2 ? nullptr : argv[1][0] == '-' ? argv[1] : argv[2];
    return obs_usage(argv[0], stray, " SCENARIO.json");
  }
  const std::string path = argv[1];
  try {
    if (!g_cli.replay_bundle.empty()) {
      std::fprintf(stderr,
                   "paraleon_run: --replay-flight replays a fig8 bundle; run "
                   "it with bench_fig8_influx.\n");
      return 2;
    }
    const scenario::Scenario sc =
        scenario::load_scenario_file(path, g_cli.tiny);
    // --grid-out/--grid-check run a sweep-less scenario as a one-cell
    // grid, so every committed file goes through the same CI loop.
    const bool grid = !sc.sweep.empty() || g_cli.grid_check ||
                      !g_cli.grid_out.empty();
    return grid ? run_grid_mode(sc) : run_single(sc);
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
