// GridRunner: sweep expansion (row-major, first axis slowest), the
// jobs-invariant deterministic half of paraleon.grid.v1 (a seed sweep is
// a `seed`-axis grid), the pool timeline and stragglers of the wall half,
// and the committed scenario pack staying parseable in both full and tiny
// form.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "scenario/grid_runner.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"

#ifndef PARALEON_SCENARIO_DIR
#define PARALEON_SCENARIO_DIR "scenarios"
#endif

namespace paraleon::scenario {
namespace {

/// Tiny dumbbell grid: 2x2 sweep, milliseconds of simulated time per
/// cell — cheap enough to run the whole cross-product twice.
Scenario grid_scenario() {
  return parse_scenario_text(R"({
    "name": "g",
    "seed": 11,
    "duration_ms": 5,
    "topology": {"kind": "dumbbell", "hosts_per_side": 4},
    "scheme": {"name": "default"},
    "workload": [{"name": "rpc", "kind": "poisson", "load": 0.3}],
    "metric": {"name": "flows_finished"},
    "sweep": {"axes": [
      {"key": "scheme.name", "values": ["default", "dcqcn_plus"]},
      {"key": "workload.rpc.load", "values": [0.1, 0.3]}
    ]}
  })");
}

TEST(ExpandGrid, RowMajorWithFirstAxisSlowest) {
  const std::vector<GridCell> cells = expand_grid(grid_scenario());
  ASSERT_EQ(cells.size(), 4u);
  const char* schemes[] = {"default", "default", "dcqcn_plus",
                           "dcqcn_plus"};
  const double loads[] = {0.1, 0.3, 0.1, 0.3};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cells[i].index, i);
    ASSERT_EQ(cells[i].coords.size(), 2u);
    EXPECT_EQ(cells[i].coords[0].first, "scheme.name");
    EXPECT_EQ(cells[i].coords[0].second.as_string(), schemes[i]);
    EXPECT_EQ(cells[i].coords[1].first, "workload.rpc.load");
    EXPECT_DOUBLE_EQ(cells[i].coords[1].second.as_double(), loads[i]);
    // The patches landed in the re-parsed scenario, sweep dropped.
    EXPECT_EQ(cells[i].scenario.scheme.name, schemes[i]);
    EXPECT_DOUBLE_EQ(cells[i].scenario.workload[0].load, loads[i]);
    EXPECT_TRUE(cells[i].scenario.sweep.empty());
    EXPECT_FALSE(cells[i].scenario.doc.has("sweep"));
  }
}

TEST(ExpandGrid, NoSweepExpandsToOneCell) {
  const Scenario sc = parse_scenario_text(R"({
    "name": "single",
    "workload": [{"name": "p", "kind": "poisson"}]
  })");
  const std::vector<GridCell> cells = expand_grid(sc);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].coords.empty());
  EXPECT_EQ(cells[0].scenario.name, "single");
}

TEST(ExpandGrid, AxisOverAnUnknownKeyFailsWithSuggestion) {
  Scenario sc = grid_scenario();
  sc.sweep[1].key = "workload.rpc.lod";
  try {
    expand_grid(sc);
    FAIL() << "expected a ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean \"load\""),
              std::string::npos)
        << e.what();
  }
}

TEST(ExpandGrid, SchemeParamsAxisPatchesEachCell) {
  Scenario sc = parse_scenario_text(R"({
    "name": "p",
    "scheme": {"name": "paraleon"},
    "workload": [{"name": "rpc", "kind": "poisson"}],
    "sweep": {"axes": [
      {"key": "scheme.params.controller.sa.total_iter_num", "values": [2, 7]}
    ]}
  })");
  const std::vector<GridCell> cells = expand_grid(sc);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(to_experiment_config(cells[0].scenario).controller.sa
                .total_iter_num, 2);
  EXPECT_EQ(to_experiment_config(cells[1].scenario).controller.sa
                .total_iter_num, 7);
  // A flat param is not a top-level key: the axis needs the
  // scheme.params. prefix.
  sc.sweep[0].key = "controller.sa.total_iter_num";
  EXPECT_THROW(expand_grid(sc), ScenarioError);
}

TEST(ExpandGrid, ObjectValuedParamsAxisReplacesParamsAndLaterAxisPatches) {
  const Scenario sc = parse_scenario_text(R"({
    "name": "variants",
    "scheme": {"name": "paraleon",
               "params": {"controller.sa.total_iter_num": 9,
                          "controller.kl_theta": 0.5}},
    "workload": [{"name": "rpc", "kind": "poisson"}],
    "sweep": {"axes": [
      {"key": "scheme.params", "values": [
        {"controller.sa.total_iter_num": 2},
        {"controller.sa.total_iter_num": 3,
         "controller.sa.cooling_rate": 0.5}
      ]},
      {"key": "scheme.params.controller.mi_us", "values": [500, 2000]}
    ]}
  })");
  const std::vector<GridCell> cells = expand_grid(sc);
  ASSERT_EQ(cells.size(), 4u);
  const runner::ExperimentConfig first = to_experiment_config(
      cells[0].scenario);
  EXPECT_EQ(first.controller.sa.total_iter_num, 2);
  // The variant replaced the whole params object: kl_theta is back at
  // the paper default, not the base file's 0.5.
  EXPECT_DOUBLE_EQ(first.controller.kl_theta, 0.01);
  EXPECT_EQ(first.controller.mi, microseconds(500));
  const runner::ExperimentConfig last = to_experiment_config(
      cells[3].scenario);
  EXPECT_EQ(last.controller.sa.total_iter_num, 3);
  EXPECT_DOUBLE_EQ(last.controller.sa.cooling_rate, 0.5);
  EXPECT_EQ(last.controller.mi, microseconds(2000));
}

TEST(GridCell, CoordsLabelRendersObjectsAndArraysOnOneLine) {
  const Scenario sc = parse_scenario_text(R"({
    "name": "labels",
    "scheme": {"name": "custom"},
    "workload": [{"name": "rpc", "kind": "poisson"}],
    "sweep": {"axes": [
      {"key": "scheme.params", "values": [
        {"dcqcn.kmax_kb": 80, "dcqcn.kmin_kb": 20}
      ]},
      {"key": "workload.rpc.hosts", "values": [[0, 1], [2, 3]]}
    ]}
  })");
  const std::vector<GridCell> cells = expand_grid(sc);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1].coords_label(),
            R"(scheme.params={"dcqcn.kmax_kb":80,"dcqcn.kmin_kb":20} )"
            R"(workload.rpc.hosts=[2,3])");
  for (const GridCell& cell : cells) {
    EXPECT_EQ(cell.coords_label().find('\n'), std::string::npos);
  }
}

TEST(RunGrid, DeterministicHalfIsJobsInvariant) {
  const Scenario sc = grid_scenario();
  GridOptions serial;
  serial.jobs = 1;
  GridOptions fanned;
  fanned.jobs = 4;
  GridOutcome one = run_grid(sc, serial);
  GridOutcome four = run_grid(sc, fanned);
  // Wall halves differ (jobs is recorded there); the deterministic halves
  // must not, byte for byte.
  EXPECT_EQ(one.to_json(false), four.to_json(false));
  EXPECT_NE(one.to_json(true), four.to_json(true));
  ASSERT_EQ(four.results().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(four.results()[i].index, i);  // cell order, not finish order
    EXPECT_NE(four.results()[i].digest, 0u);
  }
  // Different scheme/load cells are genuinely different runs.
  EXPECT_NE(four.results()[0].digest, four.results()[3].digest);
}

/// A seed sweep: one `seed` axis over four seeds.
Scenario seed_scenario() {
  return parse_scenario_text(R"({
    "name": "seeds",
    "seed": 1,
    "duration_ms": 5,
    "topology": {"kind": "dumbbell", "hosts_per_side": 4},
    "scheme": {"name": "paraleon"},
    "workload": [{"name": "rpc", "kind": "poisson", "load": 0.3}],
    "metric": {"name": "flows_finished"},
    "sweep": {"axes": [{"key": "seed", "values": [101, 102, 103, 104]}]}
  })");
}

TEST(RunGrid, SeedAxisSweepIsJobsInvariant) {
  const GridOutcome serial = run_grid(seed_scenario(), {});
  ASSERT_EQ(serial.results().size(), 4u);
  std::set<std::uint64_t> digests;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(serial.cells()[i].scenario.seed, 101u + i);
    EXPECT_EQ(serial.results()[i].seed, 101u + i);
    digests.insert(serial.results()[i].digest);
  }
  EXPECT_EQ(digests.size(), 4u);  // each seed is a different run
  // 8 workers > 4 cells exercises the more-workers-than-jobs path.
  for (const int jobs : {2, 8}) {
    GridOptions opts;
    opts.jobs = jobs;
    EXPECT_EQ(run_grid(seed_scenario(), opts).to_json(false),
              serial.to_json(false))
        << "jobs=" << jobs;
  }
}

TEST(RunGrid, RunCellReproducesTheGridCell) {
  const Scenario sc = grid_scenario();
  const std::vector<GridCell> cells = expand_grid(sc);
  const GridOutcome grid = run_grid(sc, {});
  const CellResult lone = run_cell(cells[2], {});
  EXPECT_EQ(lone.digest, grid.results()[2].digest);
  EXPECT_DOUBLE_EQ(lone.value, grid.results()[2].value);
  EXPECT_EQ(lone.seed, grid.results()[2].seed);
}

TEST(GridDoc, SchemaShapeAndWallSplit) {
  GridOutcome grid = run_grid(grid_scenario(), {});
  grid.set_wall_seconds(1.5);

  const Json det = Json::parse(grid.to_json(false));
  EXPECT_EQ(det.find("schema")->as_string(), "paraleon.grid.v1");
  EXPECT_EQ(det.find("scenario")->as_string(), "g");
  EXPECT_FALSE(det.has("wall"));
  ASSERT_TRUE(det.has("axes"));
  ASSERT_EQ(det.find("axes")->items().size(), 2u);
  EXPECT_EQ(det.find("axes")->items()[0].find("key")->as_string(),
            "scheme.name");
  const Json* cells = det.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items().size(), 4u);
  for (const Json& cell : cells->items()) {
    // Digests are fixed-width lowercase hex strings (json numbers cannot
    // carry 64 bits losslessly).
    const std::string& digest = cell.find("digest")->as_string();
    ASSERT_EQ(digest.size(), 16u);
    for (const char c : digest) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
    }
    EXPECT_TRUE(cell.find("coords")->is_object());
    EXPECT_TRUE(cell.has("fct"));
  }
  EXPECT_TRUE(det.has("aggregates"));

  const Json wall = Json::parse(grid.to_json(true));
  ASSERT_TRUE(wall.has("wall"));
  EXPECT_DOUBLE_EQ(wall.find("wall")->find("wall_seconds")->as_double(),
                   1.5);
}

TEST(GridDoc, AggregatesSummarizeTheCells) {
  const GridOutcome grid = run_grid(grid_scenario(), {});
  const std::map<std::string, runner::FleetAggregate> agg =
      grid.aggregates();
  ASSERT_TRUE(agg.count("metric_value"));
  EXPECT_EQ(agg.at("metric_value").n, 4u);
  EXPECT_LE(agg.at("metric_value").min, agg.at("metric_value").mean);
  EXPECT_LE(agg.at("metric_value").mean, agg.at("metric_value").max);
  ASSERT_TRUE(agg.count("events_executed"));
  EXPECT_GT(agg.at("events_executed").min, 0.0);
}

std::size_t count_phase(const Json& trace, const std::string& ph) {
  std::size_t n = 0;
  for (const Json& ev : trace.find("traceEvents")->items()) {
    if (ev.find("ph")->as_string() == ph) ++n;
  }
  return n;
}

TEST(GridTimeline, OneTrackPerWorkerAndOneSpanPerCell) {
  obs::PoolTelemetry pool;
  GridOptions opts;
  opts.jobs = 2;
  opts.telemetry = &pool;
  const GridOutcome grid = run_grid(grid_scenario(), opts);
  const Json trace = Json::parse(grid.timeline_json());
  ASSERT_EQ(pool.workers(), 2);
  // process_name + the submit track + one thread_name per worker.
  EXPECT_EQ(count_phase(trace, "M"), 2u + 2u);
  EXPECT_EQ(count_phase(trace, "X"), 4u);
  EXPECT_EQ(count_phase(trace, "s"), 4u);
  EXPECT_EQ(count_phase(trace, "f"), 4u);
  std::set<std::int64_t> cells;
  for (const Json& ev : trace.find("traceEvents")->items()) {
    if (ev.find("ph")->as_string() != "X") continue;
    const std::int64_t cell = ev.find("args")->find("cell")->as_int64();
    cells.insert(cell);
    EXPECT_EQ(ev.find("name")->as_string(),
              "cell " + std::to_string(cell) + " " +
                  grid.cells()[static_cast<std::size_t>(cell)].coords_label());
    EXPECT_GE(ev.find("tid")->as_int64(), 1);
    EXPECT_LE(ev.find("tid")->as_int64(), 2);
  }
  EXPECT_EQ(cells.size(), 4u);
}

TEST(GridTimeline, WithoutPoolIsJustTheHeader) {
  const GridOutcome grid = run_grid(grid_scenario(), {});
  const Json trace = Json::parse(grid.timeline_json());
  // process_name + the submit track, nothing else.
  EXPECT_EQ(trace.find("traceEvents")->items().size(), 2u);
  EXPECT_EQ(count_phase(trace, "X"), 0u);
}

TEST(GridDoc, WallListsStragglersByCell) {
  // Synthetic pool: eight instant jobs, one of which (job 5) sleeps, so
  // its z-score is ~2.6 against the pack.
  obs::PoolTelemetry pool;
  pool.attach(1);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t job = pool.on_submit();
    pool.on_job_start(0, job);
    if (i == 5) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.on_job_end(0, job);
  }
  pool.detach();
  GridOutcome grid(grid_scenario(), {}, {});
  grid.set_wall_shape(1, 1, &pool);
  const Json doc = Json::parse(grid.to_json(true));
  const Json* stragglers = doc.find("wall")->find("stragglers");
  ASSERT_NE(stragglers, nullptr);
  ASSERT_EQ(stragglers->items().size(), 1u);
  const Json& s = stragglers->items()[0];
  ASSERT_EQ(s.members().size(), 3u);
  EXPECT_EQ(s.find("cell")->as_int64(), 5);
  EXPECT_GT(s.find("z")->as_double(), 2.0);
  EXPECT_GE(s.find("seconds")->as_double(), 0.02);

  // Without a pool the list is present and empty.
  grid.set_wall_shape(1, 1, nullptr);
  const Json bare = Json::parse(grid.to_json(true));
  EXPECT_TRUE(bare.find("wall")->find("stragglers")->items().empty());
}

TEST(ScenarioPack, EveryCommittedFileParsesInBothForms) {
  const std::string dir = PARALEON_SCENARIO_DIR;
  for (const char* file : {"fig8_influx.json", "fig13_alltoall.json",
                           "mixed_multitenant.json"}) {
    for (const bool tiny : {false, true}) {
      const Scenario sc =
          load_scenario_file(dir + "/" + file, tiny);
      EXPECT_FALSE(sc.name.empty()) << file;
      EXPECT_FALSE(sc.sweep.empty()) << file;
      // Expansion re-validates every cell; a drifting sweep key in a
      // committed file fails here, not at bench runtime.
      EXPECT_FALSE(expand_grid(sc).empty()) << file;
    }
  }
}

}  // namespace
}  // namespace paraleon::scenario
