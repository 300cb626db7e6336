// Fig. 14 reproduction (testbed experiment, simulated): runtime bandwidth
// and latency with a SolarRPC influx over an alltoall background.
//
// Paper: 32-node alltoall background; a SolarRPC burst (all mice <128 KB,
// Poisson WRITEs) arrives for a window. PARALEON drops latency while the
// mice dominate, then restores bandwidth; Default/Expert cannot adapt.
//
// The runs are the scheme grid of scenarios/fig14_rpc_influx.json: a
// moderate 16-worker background, so the burst window is congested but
// not saturated (a saturated fabric would mask scheme differences). Each
// cell's metric is the burst-window RTT.
#include <cstdio>
#include <string>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;

/// One row: goodput and RTT before, during and after the RPC burst, and
/// the RPC flows' p99 FCT slowdown.
std::string phase_row(const scenario::GridCell& cell, Experiment& exp) {
  const scenario::WorkloadComponent& rpc = cell.scenario.workload.back();
  const Time start = milliseconds(rpc.start_ms);
  const Time stop = milliseconds(rpc.stop_ms);
  const Time end = exp.config().duration;
  const auto& tput = exp.throughput_series();
  const auto& rtt = exp.rtt_series();
  char buf[160];
  std::snprintf(
      buf, sizeof buf,
      "%-10s | %8.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f | %10.2f\n",
      cell_scheme(cell).c_str(), tput.mean_in(start / 2, start),
      rtt.mean_in(start / 2, start),
      tput.mean_in(start + milliseconds(2), stop),
      rtt.mean_in(start + milliseconds(2), stop),
      tput.mean_in(stop + milliseconds(20), end),
      rtt.mean_in(stop + milliseconds(20), end),
      stats::quantile(exp.fct().slowdowns(0, 128 << 10), 0.99));
  return buf;
}

int run() {
  const scenario::Scenario sc =
      load_bench_scenario(g_cli, "fig14_rpc_influx.json");
  const scenario::WorkloadComponent& rpc = sc.workload.back();
  print_header("Fig. 14: runtime bandwidth & latency with SolarRPC influx",
               scaling_note(scenario::to_experiment_config(sc),
                            std::to_string(sc.workload.front().workers) +
                                "-worker alltoall background + " +
                                fmt(rpc.stop_ms - rpc.start_ms, 0) +
                                " ms SolarRPC burst @" +
                                fmt(100 * rpc.load, 0) +
                                "% load (paper: 32 H100 nodes @400G)"));
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s | %10s\n", "", "before",
              "", "burst", "", "after", "", "rpc");
  std::printf("%-10s | %8s %8s | %8s %8s | %8s %8s | %10s\n", "scheme",
              "Gbps", "rtt_us", "Gbps", "rtt_us", "Gbps", "rtt_us",
              "p99_slow");
  return run_row_grid(g_cli, sc, phase_row, {}, g_cli.grid_out);
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(
      argc, argv, kGridCheck | kGridOut, &g_cli, "fig14_rpc_influx",
      "\nPaper Fig. 14 shape: PARALEON has the lowest latency (and best\n"
      "RPC tail) during the burst and recovers bandwidth fastest after\n"
      "it.\n",
      [](TrendReport&) { return run(); });
}
