// Fig. 12 reproduction: ablation on the SA optimisations (guided
// randomness + relaxed temperature) — utility convergence traces of
// PARALEON vs naive_SA on FB_Hadoop and the LLM training workload.
//
// Reproduced shape: PARALEON's utility climbs to a high value within a few
// dozen monitor intervals; naive_SA needs far more iterations and tracks
// lower over the same horizon.
//
// The traces are the scheme grids of scenarios/fig12_fb_hadoop.json and
// scenarios/fig12_llm.json (skipped at --tiny); the shadow-fleet section
// replays the window of scenarios/fig12_shadow_window.json.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "exec/shadow_fleet.hpp"
#include "scenario/flow_scheduler.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;

/// The utility traces of one scheme grid's PARALEON and naive_SA cells,
/// in windows of a tenth of the run plus the mean of its final third.
int compare(const char* title, const std::string& file) {
  std::printf("\n-- %s --\n", title);
  const scenario::Scenario sc = load_bench_scenario(g_cli, file);
  stats::TimeSeries traces[2];  // [0] PARALEON, [1] naive_SA
  scenario::GridOptions opts;
  opts.on_cell = [&traces](const scenario::GridCell& cell, Experiment& exp) {
    traces[cell.scenario.scheme.name == "paraleon_naive_sa"] =
        exp.controller()->utility_series();
  };
  const auto report = [&traces, &sc](const scenario::GridOutcome&) {
    const auto& [paraleon, naive] = traces;
    const Time end = milliseconds(sc.duration_ms);
    const Time step = end / 10;
    std::printf("%-12s %-12s %-12s\n", "window_ms", "naive_SA", "PARALEON");
    for (Time t = 0; t < end; t += step) {
      std::printf("%4lld-%-7lld %-12.4f %-12.4f\n",
                  static_cast<long long>(to_ms(t)),
                  static_cast<long long>(to_ms(t + step)),
                  naive.mean_in(t, t + step), paraleon.mean_in(t, t + step));
    }
    std::printf("final-%lldms mean:  naive=%.4f  paraleon=%.4f\n",
                static_cast<long long>(to_ms(end / 3)),
                naive.mean_in(end - end / 3, end),
                paraleon.mean_in(end - end / 3, end));
    return 0;
  };
  return run_bench_grid(g_cli, sc, std::move(opts), report);
}

/// Shadow-fleet section: the same guided-SA episode driven offline over a
/// recorded workload window, with K candidate settings per temperature
/// step evaluated in K concurrent shadow experiments. K=1 is the serial
/// chain (byte-identical to step-driven SA — the determinism test proves
/// it); K=4 shows the wall-clock win of speculative parallel evaluation.
void shadow_fleet_section(TrendReport& trend) {
  std::printf("\n-- shadow-fleet SA: K candidates per temperature step --\n");
  const scenario::Scenario sc =
      load_bench_scenario(g_cli, "fig12_shadow_window.json");
  exec::ShadowWindow w;
  w.base = scenario::to_experiment_config(sc);
  w.setup = [&sc](Experiment& exp) {
    scenario::FlowScheduler(sc, &exp).install_all();
  };
  w.measure_from = milliseconds(2);
  w.weights = {0.2, 0.5, 0.3};
  const dcqcn::DcqcnParams start = dcqcn::scaled_for_line_rate(
      dcqcn::default_params(), gbps(100), w.base.clos.host_link);
  core::SaConfig sa;
  sa.total_iter_num = g_cli.tiny ? 2 : 3;
  sa.cooling_rate = 0.5;

  std::printf("%-4s %-7s %-7s %-12s %-8s %-9s %-9s %-9s %-7s %-12s\n", "K",
              "evals", "batches", "best_util", "wall_s", "proposed",
              "evaluated", "accepted", "wasted", "wasted_evts");
  for (const int k : {1, 4}) {
    exec::ShadowFleetConfig fcfg;
    fcfg.sa = sa;
    fcfg.fleet_size = k;
    // 0 = one worker per candidate; an explicit --jobs caps the fleet.
    fcfg.jobs = g_cli.jobs == 1 ? 0 : g_cli.jobs;
    fcfg.seed = 77;
    const exec::ShadowFleetResult res = exec::ShadowFleet(fcfg).tune(w, start);
    const obs::SpeculationStats& sp = res.speculation;
    std::printf("%-4d %-7d %-7d %-12.4f %-8.2f %-9lld %-9lld %-9lld %-7lld "
                "%-12llu\n",
                k, res.evaluations, res.batches, res.best_utility,
                res.wall_seconds, static_cast<long long>(sp.proposed),
                static_cast<long long>(sp.evaluated),
                static_cast<long long>(sp.accepted),
                static_cast<long long>(sp.wasted),
                static_cast<unsigned long long>(sp.events_wasted));
    const std::string prefix = "shadow_k" + std::to_string(k) + "_";
    trend.add(prefix + "wasted_evals", static_cast<double>(sp.wasted),
              "evals");
    trend.add(prefix + "wasted_events", static_cast<double>(sp.events_wasted),
              "events");
  }
  std::printf(
      "K=1 reproduces the serial tuner exactly (nothing wasted); K=4\n"
      "spends speculative sibling evaluations — the wasted columns price\n"
      "that speculation in discarded runs and simulated events.\n");
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(
      argc, argv, kGridCheck, &g_cli, "fig12_sa_ablation",
      "\nPaper Fig. 12 shape: PARALEON reaches a higher utility plateau\n"
      "within dozens of MIs; naive_SA stays lower/slower. The FB_Hadoop\n"
      "half reproduces strongly; the alltoall half is close to a tie at\n"
      "this fabric scale (its utility landscape is flat — see\n"
      "EXPERIMENTS.md).\n",
      [](TrendReport& trend) {
        // The traces are the expensive part; --tiny runs the shadow fleet
        // only, so the header describes its window.
        print_header(
            "Fig. 12: SA ablation — utility convergence, naive vs guided",
            scaling_note(scenario::to_experiment_config(load_bench_scenario(
                             g_cli, g_cli.tiny ? "fig12_shadow_window.json"
                                               : "fig12_fb_hadoop.json")),
                         "one forced tuning episode; 10 iters/temp, x0.85 "
                         "cooling (Table III shape)"));
        if (!g_cli.tiny) {
          int rc = compare("(a) FB_Hadoop @30%", "fig12_fb_hadoop.json");
          if (rc == 0) rc = compare("(b) LLM training alltoall",
                                    "fig12_llm.json");
          if (rc != 0) return rc;
        }
        shadow_fleet_section(trend);
        return 0;
      });
}
