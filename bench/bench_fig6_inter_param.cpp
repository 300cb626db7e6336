// Fig. 6 reproduction: inter-parameter impacts — a 2-D sweep of
// rpg_time_reset x Kmax on throughput and RTT.
//
// Paper finding: driving both parameters in the throughput-friendly
// direction simultaneously (small rpg_time_reset + large Kmax) is NOT
// monotonically better — over-aggressive injection overshoots the
// equilibrium, triggering CNP/PFC storms and convex/concave artefacts.
//
// This bench still builds its experiments in code rather than from a
// scenarios/ file: its 1280 KB Kmax column lies above the 1200 KB switch
// buffer, and to_experiment_config rejects a dcqcn.kmax_kb that
// dcqcn::clamp_to_legal would move (see ROADMAP).
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "exec/parallel_map.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;

struct Point {
  double tput_gbps = 0;
  double rtt_us = 0;
};

/// The 16-host fabric every cell runs on, seed 13, custom DCQCN setting:
/// a 4:1 oversubscribed fabric (40G down vs 10G up per ToR) with a scaled
/// shallow 1200 KB buffer, so over-aggressive injection drives fabric
/// queues into PFC — the mechanism behind the paper's convex/concave
/// artefacts. The DCQCN setting is installed per cell, past the schema.
ExperimentConfig fabric_config() {
  scenario::Scenario sc;
  sc.topology.tors = 4;
  sc.topology.spines = 2;
  sc.topology.hosts_per_tor = 4;
  sc.topology.fabric_gbps = 5;
  sc.topology.buffer_mb = 1200.0 / 1024.0;
  sc.scheme.name = "custom";
  sc.seed = 13;
  sc.duration_ms = g_cli.tiny ? 20 : 60;
  ExperimentConfig cfg = scenario::to_experiment_config(sc);
  apply_obs_cli(g_cli, cfg);
  return cfg;
}

Point run_cell(Time rpg_time_reset, std::int64_t kmax) {
  ExperimentConfig cfg = fabric_config();
  dcqcn::DcqcnParams& p = cfg.custom_params;  // the scaled default
  p.rpg_time_reset = rpg_time_reset;
  p.kmax_bytes = kmax;
  p.kmin_bytes = kmax / 4;
  Experiment exp(cfg);
  workload::AlltoallConfig a2a;
  for (int i = 0; i < 12; ++i) a2a.workers.push_back(i);
  a2a.flow_size = 256 * 1024;
  a2a.off_period = microseconds(500);
  exp.add_alltoall(a2a);
  exp.run();
  const Time warmup = g_cli.tiny ? milliseconds(5) : milliseconds(10);
  return {exp.throughput_series().mean_in(warmup, cfg.duration),
          exp.rtt_series().mean_in(warmup, cfg.duration)};
}

void run() {
  print_header("Fig. 6: inter-parameter impact grid (rpg_time_reset x kmax)",
               scaling_note(fabric_config(),
                            "12x12 alltoall (paper used 100G NS3)"));
  const std::vector<Time> resets = {microseconds(30), microseconds(100),
                                    microseconds(300), microseconds(900)};
  const std::vector<std::int64_t> kmaxes = {20 << 10, 80 << 10, 320 << 10,
                                            1280 << 10};
  std::vector<std::pair<Time, std::int64_t>> cells;
  for (const Time t : resets) {
    for (const std::int64_t k : kmaxes) cells.emplace_back(t, k);
  }
  const std::vector<Point> points = exec::parallel_map(
      cells, [](const auto& c) { return run_cell(c.first, c.second); },
      g_cli.jobs);
  for (const auto& [title, field] :
       {std::pair{"Throughput (Gbps)", &Point::tput_gbps},
        std::pair{"RTT (us)", &Point::rtt_us}}) {
    std::printf("\n%s:\n%-18s", title, "t_reset \\ kmax");
    for (auto k : kmaxes) {
      std::printf("%8lldKB", static_cast<long long>(k >> 10));
    }
    std::printf("\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i % kmaxes.size() == 0) {
        std::printf("%-16.0fus", to_us(cells[i].first));
      }
      std::printf("%10.2f", points[i].*field);
      if (i % kmaxes.size() + 1 == kmaxes.size()) std::printf("\n");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(
      argc, argv, 0, &g_cli, "fig6_inter_param",
      "\nPaper Fig. 6 shape: along the 'both throughput-friendly' diagonal\n"
      "(towards top-right: small t_reset, large kmax) throughput is NOT\n"
      "monotone — the most aggressive corner should underperform some\n"
      "interior cell, and RTT grows sharply there.\n",
      [](TrendReport&) {
        run();
        return 0;
      });
}
