// Fig. 9 reproduction: PARALEON vs offline-pretrained static settings.
//
// Pretrained 1 is frozen from an offline PARALEON run on the LLM alltoall
// workload; Pretrained 2 from an offline run on FB_Hadoop. Both are then
// replayed as static settings on the Fig. 8 influx scenario against live
// PARALEON. Reproduced shape: each pretrained setting is good for "its"
// phase but cannot adapt; live PARALEON wins across phases.
//
// The pretraining runs are scenarios/fig9_pretrain_alltoall.json and
// scenarios/fig9_pretrain_fb_hadoop.json; the evaluation is the grid of
// scenarios/fig9_influx.json, whose Pretrained1/Pretrained2 cells become
// static custom settings through the grid's on_config hook.
#include <cstdio>
#include <map>
#include <string>

#include "bench_common.hpp"

using namespace paraleon;
using namespace paraleon::bench;
using namespace paraleon::runner;

namespace {

ObsCli g_cli;

/// The setting PARALEON freezes after the offline run in `file`.
dcqcn::DcqcnParams pretrain(const std::string& file, int* rc) {
  dcqcn::DcqcnParams learned;
  scenario::GridOptions opts;
  opts.on_cell = [&learned](const scenario::GridCell&, Experiment& exp) {
    learned = exp.learned_params();
  };
  *rc = run_bench_grid(g_cli, load_bench_scenario(g_cli, file),
                       std::move(opts),
                       [](const scenario::GridOutcome&) { return 0; });
  return learned;
}

/// One influx row: goodput and RTT before, during and after the burst.
std::string influx_row(const scenario::GridCell& cell, Experiment& exp) {
  const scenario::WorkloadComponent& burst = cell.scenario.workload.back();
  const Time start = milliseconds(burst.start_ms);
  const Time stop = milliseconds(burst.stop_ms);
  const Time end = exp.config().duration;
  const auto& tput = exp.throughput_series();
  const auto& rtt = exp.rtt_series();
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%-14s | %8.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f\n",
                cell.scenario.description.c_str(),
                tput.mean_in(start / 2, start), rtt.mean_in(start / 2, start),
                tput.mean_in(start + milliseconds(2), stop),
                rtt.mean_in(start + milliseconds(2), stop),
                tput.mean_in(stop + milliseconds(20), end),
                rtt.mean_in(stop + milliseconds(20), end));
  return buf;
}

int run() {
  const scenario::Scenario influx =
      load_bench_scenario(g_cli, "fig9_influx.json");
  print_header("Fig. 9: live PARALEON vs offline-pretrained static settings",
               scaling_note(scenario::to_experiment_config(influx),
                            "pretraining: offline episodes of "
                            "fig9_pretrain_*.json; evaluation: the Fig. 8 "
                            "influx scenario"));
  int rc = 0;
  const dcqcn::DcqcnParams pre1 = pretrain("fig9_pretrain_alltoall.json", &rc);
  if (rc != 0) return rc;
  const dcqcn::DcqcnParams pre2 =
      pretrain("fig9_pretrain_fb_hadoop.json", &rc);
  if (rc != 0) return rc;
  std::printf("Pretrained1 (alltoall):  %s\n", dcqcn::to_string(pre1).c_str());
  std::printf("Pretrained2 (fb_hadoop): %s\n\n",
              dcqcn::to_string(pre2).c_str());
  std::printf("%-14s | %8s %8s | %8s %8s | %8s %8s\n", "scheme",
              "pre_Gbps", "pre_rtt", "inf_Gbps", "inf_rtt", "post_Gbps",
              "post_rtt");
  // The cells labelled Pretrained1/2 replay a learned setting statically.
  const std::map<std::string, const dcqcn::DcqcnParams*> pretrained = {
      {"Pretrained1", &pre1}, {"Pretrained2", &pre2}};
  scenario::GridOptions opts;
  opts.on_config = [&pretrained](const scenario::GridCell& cell,
                                 ExperimentConfig& cfg) {
    const auto it = pretrained.find(cell.scenario.description);
    if (it == pretrained.end()) return;
    cfg.scheme = Scheme::kCustomStatic;
    cfg.custom_params = *it->second;
  };
  return run_row_grid(g_cli, influx, influx_row, std::move(opts));
}

}  // namespace

int main(int argc, char** argv) {
  return bench_main(
      argc, argv, kGridCheck, &g_cli, "fig9_pretrained",
      "\nPaper Fig. 9 shape: the pretrained settings capture only their\n"
      "training workload; live PARALEON achieves lower RTT during the\n"
      "influx AND higher throughput afterwards.\n",
      [](TrendReport&) { return run(); });
}
