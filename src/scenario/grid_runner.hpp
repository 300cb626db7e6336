// GridRunner: expands a scenario's sweep section into its cross-product
// of cells and runs every cell through exec::parallel_map, producing one
// paraleon.grid.v1 document. It is the one way to run many experiments:
// a seed sweep is a grid with a `seed` axis.
//
// Determinism contract (the same split paraleon.bench.v1 uses):
// the deterministic half — per-cell seed, run_digest, metric value, scrape
// and the aggregates over them — is byte-identical at any --jobs setting
// (jobs<=1 is exec::parallel_map's exact serial path; cells never share
// state). The requested job count, pool utilization and wall seconds live
// only under the "wall" subtree, which to_json(false) omits entirely — the
// form the grid determinism test byte-compares across worker counts.
// timeline_json() renders the same pool spans as a Chrome trace (a track
// per worker, a span per cell) for https://ui.perfetto.dev.
//
// Cell enumeration is row-major with the FIRST axis slowest: fig13's
// scheme x workers axes give scheme-outer / scale-inner rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/fleet.hpp"
#include "runner/sweep_report.hpp"
#include "scenario/flow_scheduler.hpp"
#include "scenario/scenario.hpp"

namespace paraleon::scenario {

/// One point of the sweep cross-product: its row-major index, the axis
/// coordinates that produced it, and the fully re-validated scenario with
/// those patches applied (sweep section dropped).
struct GridCell {
  std::size_t index = 0;
  std::vector<Json::Member> coords;
  Scenario scenario;

  /// The coordinates as "key=value key=value" ("-" when there are
  /// none), string values unquoted, object and array values as one-line
  /// compact JSON.
  std::string coords_label() const;
};

/// The deterministic facts of one finished cell.
struct CellResult {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
  double value = 0.0;
  runner::RunScrape scrape;
};

struct GridOptions {
  /// Worker threads for the cell fan-out; <=1 is the exact serial path,
  /// 0 means one per hardware core.
  int jobs = 1;
  /// Observes the pool that runs the cells (wall half of the document and
  /// the timeline). Use a fresh telemetry per run_grid call: pool job i
  /// is read as cell i.
  obs::PoolTelemetry* telemetry = nullptr;
  /// Last-mile config hook, applied after the scenario's own mapping,
  /// before the Experiment is built — how the benches layer their
  /// --trace/--perf/--flight CLI onto every cell. Anything it changes that
  /// alters telemetry (tracing schedules scrape events) changes the cells'
  /// digests.
  std::function<void(const GridCell&, runner::ExperimentConfig&)> on_config;
  /// Per-cell hook, called on the WORKER thread after the cell's run
  /// completes. Must not touch shared mutable state except through
  /// disjoint, preallocated slots (index by cell.index) — the benches use
  /// this to harvest extra series for their tables.
  std::function<void(const GridCell&, runner::Experiment&)> on_cell;
};

/// A finished grid: cells, per-cell results, and the wall-side facts.
class GridOutcome {
 public:
  GridOutcome(const Scenario& base, std::vector<GridCell> cells,
              std::vector<CellResult> results);

  const std::vector<GridCell>& cells() const { return cells_; }
  const std::vector<CellResult>& results() const { return results_; }

  /// Wall-side facts (never part of the deterministic half). run_grid
  /// fills jobs/hardware/pool; wall seconds are measured by the CALLER
  /// (src/scenario never reads the wall clock — determinism lint).
  void set_wall_shape(int jobs, int hardware_workers,
                      const obs::PoolTelemetry* pool);
  void set_wall_seconds(double s) { wall_seconds_ = s; }
  double wall_seconds() const { return wall_seconds_; }

  /// min/mean/p95/max over every scraped instrument plus the reserved
  /// names metric_value, events_executed, fct.finished and
  /// fct.slowdown_mean / _p95 / _p999.
  std::map<std::string, runner::FleetAggregate> aggregates() const;

  /// The paraleon.grid.v1 document. include_wall=false omits the "wall"
  /// subtree — byte-deterministic at any job count. The wall subtree
  /// carries the pool's utilization and its z-score stragglers (cells
  /// whose wall time sits over 2 standard deviations above the mean).
  std::string to_json(bool include_wall = true) const;

  /// One Chrome-trace JSON of the pool: a metadata-named track per
  /// worker plus a "submit" track, an 'X' span per cell (named by index
  /// and coords), and an 's'->'f' flow arrow from each submission to its
  /// execution. Without a pool (jobs <= 1) only the track header.
  std::string timeline_json() const;

 private:
  std::string name_;
  std::uint64_t seed_ = 0;
  std::string metric_;
  std::vector<SweepAxis> axes_;
  std::vector<GridCell> cells_;
  std::vector<CellResult> results_;
  int jobs_ = 1;
  int hardware_workers_ = 0;
  double wall_seconds_ = 0.0;
  const obs::PoolTelemetry* pool_ = nullptr;
};

/// Expands the sweep cross-product. Each cell's doc is the base doc with
/// the sweep section dropped and the axis patches applied, then strictly
/// re-parsed — an axis over an unknown key fails with the usual
/// "did you mean" ScenarioError. A scenario without a sweep expands to
/// one cell with empty coords.
std::vector<GridCell> expand_grid(const Scenario& base);

/// Runs one cell to completion: config, experiment, FlowScheduler,
/// forced trigger when requested, run, digest + metric + scrape. Exposed
/// for the golden-digest tests; run_grid fans exactly this out.
CellResult run_cell(const GridCell& cell, const GridOptions& opts);

/// The whole grid through exec::parallel_map. Results come back in cell
/// order regardless of job count.
GridOutcome run_grid(const Scenario& base, const GridOptions& opts = {});

}  // namespace paraleon::scenario
