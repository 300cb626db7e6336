// Fig. 8 reproduction: traffic dynamics with a workload "influx".
//
// An LLM alltoall runs as background; a 30 ms FB_Hadoop burst arrives and
// competes. Runtime throughput and RTT time series are printed per scheme.
// Reproduced shape: during the influx PARALEON drops RTT (mice-dominant
// FSD -> delay-friendly setting) below the other schemes, then restores
// throughput for the remaining elephants after the burst.
//
// Every mode builds from scenarios/fig8_influx.json: the scheme table runs
// the file's scheme axis through the scenario engine's GridRunner
// (`--jobs N` fans the cells out), and the flight-fault / replay modes
// run its scheme.name=paraleon cell through the same
// to_experiment_config -> FlowScheduler path. tests/
// scenario_golden_test.cpp pins the cells' --tiny run_digests. A seed
// sweep of the paraleon cell is a `seed`-axis grid run by paraleon_run
// (docs/SCENARIOS.md).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "runner/flight.hpp"
#include "scenario/flow_scheduler.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;

/// The scheme.name=paraleon cell of the fig8 grid: what the flight-fault
/// and replay modes run.
scenario::GridCell paraleon_cell(const scenario::Scenario& sc) {
  for (scenario::GridCell& cell : scenario::expand_grid(sc)) {
    if (cell.scenario.scheme.name == "paraleon") return std::move(cell);
  }
  throw scenario::ScenarioError(sc.name + ": no scheme.name=paraleon cell");
}

/// The cell's config with the CLI layered on, as the grid's on_config
/// hook does for the table.
ExperimentConfig cell_config(const scenario::GridCell& cell) {
  ExperimentConfig cfg = scenario::to_experiment_config(cell.scenario);
  apply_obs_cli(g_cli, cfg);
  return cfg;
}

/// Builds the cell's experiment and installs its workload components (a
/// replay MUST install the identical workloads: the bundle stores only
/// seed + horizon, determinism does the rest).
std::unique_ptr<Experiment> build(const scenario::GridCell& cell,
                                  ExperimentConfig cfg) {
  auto exp = std::make_unique<Experiment>(std::move(cfg));
  scenario::FlowScheduler(cell.scenario, exp.get()).install_all();
  return exp;
}

/// --flight-fault: trip the flight recorder on demand by corrupting ToR 0's
/// MMU accounting mid-run; the kFull invariant checker throws CheckFailure
/// and the armed recorder dumps a "check_failure" bundle. Exit 0 iff the
/// bundle landed (CI validates and replays it afterwards).
int run_flight_fault(const scenario::GridCell& cell) {
  ExperimentConfig cfg = cell_config(cell);
  cfg.invariants.level = check::CheckLevel::kFull;
  const std::unique_ptr<Experiment> exp = build(cell, std::move(cfg));
  const Time fault_at = g_cli.tiny ? milliseconds(10) : milliseconds(80);
  exp->simulator().schedule_at(fault_at, [&exp] {
    exp->topology().tor(0).inject_buffer_accounting_fault(4096);
  });
  try {
    exp->run();
    std::fprintf(stderr, "flight-fault: injected fault was not detected\n");
    return 1;
  } catch (const check::CheckFailure&) {
    if (exp->flight_bundle_dir().empty()) {
      std::fprintf(stderr, "flight-fault: CheckFailure but no bundle\n");
      return 1;
    }
    std::printf("# flight bundle: %s\n", exp->flight_bundle_dir().c_str());
  }
  return 0;
}

/// --replay-flight BUNDLE: re-run the bundle's seed with every trace
/// category forced on up to just past the trigger, writing the Perfetto
/// trace of the anomaly window back into the bundle. The other flags
/// (--tiny in particular) must match the invocation that wrote it.
int run_replay(const scenario::GridCell& cell, const std::string& bundle) {
  ReplayRequest req;
  if (!load_replay_request(bundle, &req)) {
    std::fprintf(stderr, "replay-flight: cannot read %s/replay.cfg\n",
                 bundle.c_str());
    return 1;
  }
  ExperimentConfig cfg = cell_config(cell);
  apply_replay(cfg, req);
  const std::unique_ptr<Experiment> exp = build(cell, std::move(cfg));
  exp->run();
  if (!write_replay_outputs(*exp, bundle)) {
    std::fprintf(stderr, "replay-flight: cannot write replay outputs to %s\n",
                 bundle.c_str());
    return 2;
  }
  std::printf(
      "# replay: wrote %s/replay.trace.json (trigger at %lld ns, window "
      "0..%lld ns)\n",
      bundle.c_str(), static_cast<long long>(req.trigger_ns),
      static_cast<long long>(req.replay_until_ns));
  return 0;
}

/// The fig8 reporting phases.
struct Fig8Phases {
  Time before_start, influx_start, influx_end, tail_start, end;
};

Fig8Phases fig8_phases(Time end) {
  Fig8Phases p;
  p.before_start = g_cli.tiny ? milliseconds(5) : milliseconds(60);
  p.influx_start = g_cli.tiny ? milliseconds(20) : milliseconds(120);
  p.influx_end = g_cli.tiny ? milliseconds(35) : milliseconds(150);
  p.tail_start = end - (g_cli.tiny ? milliseconds(20) : milliseconds(100));
  p.end = end;
  return p;
}

void print_table_header(const ExperimentConfig& cfg) {
  print_header("Fig. 8: runtime throughput & RTT across a FB_Hadoop influx",
               scaling_note(cfg,
                            "LLM alltoall background + 30 ms FB_Hadoop burst "
                            "@40% load (paper: 128 hosts @100G)"));
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s\n", "", "before",
              "", "influx", "", "after", "");
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s\n", "scheme", "Gbps",
              "rtt_us", "Gbps", "rtt_us", "Gbps", "rtt_us");
}

/// Per-cell phase means harvested by the grid's on_cell hook (slots are
/// preallocated and indexed by cell, so pool threads never contend).
struct Fig8Slot {
  double before_tput = 0, before_rtt = 0;
  double influx_tput = 0, influx_rtt = 0;
  double after_tput = 0, after_rtt = 0;
  double episodes = -1;  // -1 = scheme has no controller
  std::uint64_t fct_finished = 0;
  bool obs_written = true;  // false when a --trace dump failed
};

/// Default mode: the scheme table from the grid of scenarios/
/// fig8_influx.json (--jobs fans cells out), with the --grid-out /
/// --grid-check paraleon.grid.v1 surface.
int run_scenario_table(const scenario::Scenario& sc) {
  print_table_header(scenario::to_experiment_config(sc));

  const std::size_t n_cells = scenario::expand_grid(sc).size();
  std::vector<Fig8Slot> slots(n_cells);
  TrendReport trend("fig8_influx");

  scenario::GridOptions opts;
  opts.on_cell = [&slots, &trend](const scenario::GridCell& cell,
                                  Experiment& exp) {
    const Fig8Phases ph = fig8_phases(exp.config().duration);
    const auto& tput = exp.throughput_series();
    const auto& rtt = exp.rtt_series();
    Fig8Slot& slot = slots[cell.index];
    slot.before_tput = tput.mean_in(ph.before_start, ph.influx_start);
    slot.before_rtt = rtt.mean_in(ph.before_start, ph.influx_start);
    slot.influx_tput =
        tput.mean_in(ph.influx_start + milliseconds(2), ph.influx_end);
    slot.influx_rtt =
        rtt.mean_in(ph.influx_start + milliseconds(2), ph.influx_end);
    slot.after_tput = tput.mean_in(ph.tail_start, ph.end);
    slot.after_rtt = rtt.mean_in(ph.tail_start, ph.end);
    if (exp.controller() != nullptr) {
      slot.episodes = static_cast<double>(exp.controller()->episodes());
    }
    slot.fct_finished = exp.fct().finished();
    if (cell.scenario.scheme.name == "paraleon") {
      slot.obs_written = dump_obs(g_cli, exp, "fig8_paraleon");
      add_perf_metrics(trend, exp);
    }
  };

  const auto report = [&slots, &trend](const scenario::GridOutcome& grid) {
    bool obs_written = true;
    for (std::size_t i = 0; i < grid.cells().size(); ++i) {
      const scenario::GridCell& cell = grid.cells()[i];
      const Fig8Slot& slot = slots[i];
      obs_written = obs_written && slot.obs_written;
      std::printf("%-10s", cell_scheme(cell).c_str());
      std::printf(" | %8.2f %8.2f", slot.before_tput, slot.before_rtt);
      std::printf(" | %8.2f %8.2f", slot.influx_tput, slot.influx_rtt);
      std::printf(" | %8.2f %8.2f", slot.after_tput, slot.after_rtt);
      if (slot.episodes >= 0) {
        std::printf("  (episodes=%.0f)", slot.episodes);
      }
      std::printf("\n");
      if (cell.scenario.scheme.name == "paraleon") {
        trend.add("before_tput_gbps", slot.before_tput, "Gbps");
        trend.add("influx_rtt_us", slot.influx_rtt, "us");
        trend.add("after_tput_gbps", slot.after_tput, "Gbps");
        trend.add("fct_finished", static_cast<double>(slot.fct_finished),
                  "flows");
        if (slot.episodes >= 0) {
          trend.add("episodes", slot.episodes, "episodes");
        }
      }
    }
    std::printf(
        "\nPaper Fig. 8 shape: PARALEON shows the lowest RTT during the\n"
        "influx window and the highest throughput after it.\n");
    if (!obs_written) return 2;
    trend.add("grid_wall_seconds", grid.wall_seconds(), "s");
    return write_trend(g_cli, trend) ? 0 : 2;
  };
  return run_bench_grid(g_cli, sc, std::move(opts), report, g_cli.grid_out);
}

}  // namespace

int main(int argc, char** argv) {
  if (!parse_bench_cli(argc, argv, kGridCheck | kGridOut | kPerRunObs,
                       &g_cli)) {
    return 2;
  }
  try {
    const scenario::Scenario sc =
        load_bench_scenario(g_cli, "fig8_influx.json");
    if (!g_cli.replay_bundle.empty()) {
      return run_replay(paraleon_cell(sc), g_cli.replay_bundle);
    }
    if (g_cli.flight_fault) return run_flight_fault(paraleon_cell(sc));
    return run_scenario_table(sc);
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 2;
  }
}
