// Cross-run aggregation for sweeps: the paraleon.fleet.v1 report and the
// merged sweep timeline.
//
// A sweep produces N per-seed Experiments plus one exec pool that ran
// them. FleetReport merges both sides into a single document:
//
//   * Deterministic half — one row per run (seed, digest, metric value,
//     event count, FCT slowdown summary) scraped via scrape_run(), plus
//     min/mean/p95/max aggregates over every scraped instrument, the
//     JobSet failure records, and ShadowFleet speculation accounting.
//     At a fixed seed list this half is byte-identical across runs and
//     worker counts (only the declared sweep-shape header records the
//     requested job count); `to_json(false)` emits exactly it (the
//     determinism test byte-compares that form).
//   * Wall half — per-worker utilization, queue-wait histogram, per-job
//     spans, and z-score stragglers from the obs::PoolTelemetry. All of
//     it is OS-scheduling noise, so it lives in one "wall" subtree that
//     the deterministic surfaces never read (the paraleon.bench.v1
//     segregation discipline).
//
// timeline_json() renders the same spans as one Chrome-trace document:
// a track per worker, an 'X' span per experiment, and 's'/'f' flow
// arrows from submission to execution — drop it on https://ui.perfetto.dev
// next to the per-run traces.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/fleet.hpp"
#include "stats/fct_tracker.hpp"

namespace paraleon::runner {

class Experiment;

/// The per-run facts a fleet report keeps: a deterministic scrape of one
/// finished Experiment, cheap enough to take for every sweep job.
struct RunScrape {
  /// Full counter-registry snapshot (sorted map: name -> value).
  std::map<std::string, double> instruments;
  std::uint64_t events_executed = 0;
  stats::FctTracker::SlowdownStats slowdown;
  std::uint64_t flows_finished = 0;
  std::uint64_t flows_started = 0;
};

/// Scrapes a finished Experiment (registry snapshot, event count, FCT
/// slowdown stats). Deterministic for a given seed.
RunScrape scrape_run(const Experiment& exp);

/// min/mean/p95/max over one scraped quantity across the sweep's runs.
struct FleetAggregate {
  double min = 0.0;
  double mean = 0.0;
  double p95 = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

/// A job whose wall time sits `z` standard deviations above the mean.
struct Straggler {
  std::uint64_t job = 0;
  double z = 0.0;
  double seconds = 0.0;
};

/// Flags completed spans whose wall time z-score exceeds `z_threshold`.
/// Needs >= 2 completed spans and nonzero spread; returns spans in job
/// order. Exposed free for unit testing on synthetic spans.
std::vector<Straggler> find_stragglers(
    const std::vector<obs::JobSpan>& spans, double z_threshold);

/// Builder for one paraleon.fleet.v1 document. Typical use:
///
///   obs::PoolTelemetry pool;
///   auto rows = exec::sweep_experiments(cfg, make, {.jobs = 4,
///       .collect_obs = true, .telemetry = &pool});
///   runner::FleetReport fleet("fig8_sweep");
///   fleet.set_sweep_shape(seeds.size(), 4, hw);
///   for (...) fleet.add_run(seed, digest, value, row.scrape);
///   fleet.set_pool(&pool);
///   write_artifact("fleet.json", fleet.to_json() + "\n");
///   write_artifact("fleet.timeline.json", fleet.timeline_json() + "\n");
class FleetReport {
 public:
  explicit FleetReport(std::string name) : name_(std::move(name)) {}

  /// Sweep shape facts for the header (jobs as requested; 0 = hardware).
  void set_sweep_shape(std::size_t seeds, int jobs, int hardware_workers);

  /// Appends one run row. Call in seed order: row order is part of the
  /// deterministic byte surface.
  void add_run(std::uint64_t seed, std::uint64_t digest, double value,
               RunScrape scrape);

  /// Attaches the exec telemetry (wall half + failure records). The
  /// pointer must stay valid until the report is rendered.
  void set_pool(const obs::PoolTelemetry* pool) { pool_ = pool; }

  /// ShadowFleet speculation accounting (deterministic; all-zero when
  /// never set).
  void set_speculation(const obs::SpeculationStats& spec) { spec_ = spec; }

  /// min/mean/p95/max per scraped quantity: every registry instrument
  /// plus the reserved names metric_value, events_executed, fct.finished,
  /// fct.slowdown_mean / _p95 / _p999.
  std::map<std::string, FleetAggregate> aggregates() const;

  /// Stragglers among the pool's completed job spans (empty without a
  /// pool). Nondeterministic — rendered under "wall".
  std::vector<Straggler> stragglers(double z_threshold = 2.0) const;

  /// The paraleon.fleet.v1 document. include_wall=false omits the "wall"
  /// subtree entirely — that form is byte-deterministic at a fixed seed
  /// list regardless of worker count or machine.
  std::string to_json(bool include_wall = true) const;

  /// One merged Chrome-trace JSON: a metadata-named track per worker plus
  /// a "submit" track, an 'X' span per job (named by seed when the job
  /// order matches the run rows), and an 's'->'f' flow arrow from each
  /// submission to its execution.
  std::string timeline_json() const;

 private:
  struct RunRow {
    std::uint64_t seed = 0;
    std::uint64_t digest = 0;
    double value = 0.0;
    RunScrape scrape;
  };

  std::string name_;
  std::size_t sweep_seeds_ = 0;
  int sweep_jobs_ = 1;
  int hardware_workers_ = 0;
  std::vector<RunRow> runs_;
  const obs::PoolTelemetry* pool_ = nullptr;
  obs::SpeculationStats spec_;
};

}  // namespace paraleon::runner
