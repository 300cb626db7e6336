// Ablation of this implementation's engineering additions on top of the
// paper's Algorithm 1 (documented in DESIGN.md): the candidate evaluation
// window, the post-episode revert safeguard, the trigger kick + regime
// memory, and the steady-state ratchet. "Plain Alg.1" disables all of
// them; each row re-enables one.
//
// Scenario: the Fig. 8 influx (LLM alltoall + FB_Hadoop burst). The five
// cumulative variants are the scheme.params axis of
// scenarios/ablation_engineering.json, named here in axis order.
#include <cstdio>
#include <iterator>
#include <string>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;

constexpr const char* kVariants[] = {"plain_alg1", "+eval_window", "+revert",
                                     "+kick_regime", "full(+ratchet)"};

/// One variant's mean goodput, RTT and utility from the metric window on,
/// plus its episode and revert counts.
std::string variant_row(const scenario::GridCell& cell, Experiment& exp) {
  const Time from = milliseconds(cell.scenario.metric.from_ms);
  const Time end = exp.config().duration;
  const auto& c = *exp.controller();
  char buf[128];
  std::snprintf(buf, sizeof buf, "%-18s %8.2f %10.2f %10.4f %6llu %6llu\n",
                kVariants[cell.index],
                exp.throughput_series().mean_in(from, end),
                exp.rtt_series().mean_in(from, end),
                c.utility_series().mean_in(from, end),
                static_cast<unsigned long long>(c.episodes()),
                static_cast<unsigned long long>(c.reverts()));
  return buf;
}

int run() {
  const scenario::Scenario sc =
      load_bench_scenario(g_cli, "ablation_engineering.json");
  if (scenario::expand_grid(sc).size() != std::size(kVariants)) {
    throw scenario::ScenarioError(sc.name + ": expected one cell per "
                                  "variant");
  }
  print_header(
      "Engineering ablation: Algorithm 1 additions (Fig. 8 scenario)",
      scaling_note(scenario::to_experiment_config(sc),
                   "columns: mean goodput / RTT / Eq.(1) utility over "
                   "the run, episode and revert counts"));
  std::printf("%-18s %8s %10s %10s %6s %6s\n", "variant", "Gbps", "rtt_us",
              "utility", "eps", "revs");
  return run_row_grid(g_cli, sc, variant_row, {}, g_cli.grid_out);
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(
      argc, argv, kGridCheck | kGridOut, &g_cli, "ablation_engineering",
      "\nExpectation: utility climbs (or holds with lower variance) as the\n"
      "safeguards come in; 'plain_alg1' shows the exploration damage an\n"
      "unguarded 1-MI-evaluation loop inflicts at this fabric scale.\n",
      [](TrendReport&) { return run(); });
}
