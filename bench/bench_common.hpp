// Shared CLI, reporting and grid plumbing for the paper-reproduction
// benches.
//
// The paper's NS3 fabric is 8 ToR x 4 leaf x 128 hosts, all 100 Gbps, 4:1
// oversubscribed, 5 us links, 12 MB switch buffers. The benches keep the
// topology shape and oversubscription but scale to 64 hosts at 10/5 Gbps
// so every table and figure regenerates on a laptop in minutes. DCQCN
// presets are rescaled with dcqcn::scaled_for_line_rate (see DESIGN.md).
// Each experiment is a committed scenarios/*.json file; a bench loads it,
// runs its grid through run_bench_grid and prints its table.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/artifact.hpp"
#include "runner/experiment.hpp"
#include "runner/report.hpp"
#include "scenario/grid_runner.hpp"
#include "scenario/scenario.hpp"
#include "stats/percentile.hpp"

namespace paraleon::bench {

using runner::Experiment;
using runner::ExperimentConfig;
using runner::Scheme;

/// The machine fingerprint the scaling notes print and the committed
/// BENCH_*.json baselines carry: wall-clock metrics are only comparable
/// between runs whose fingerprints match (tools/bench_trend.py warns on a
/// mismatch), and deterministic metrics are attributable to a toolchain.
inline std::string compiler_id() {
#if defined(__clang__)
  return "clang-" + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc-" + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

/// "Release"/"Debug" from NDEBUG — the axis that actually moves bench
/// numbers, independent of the exact CMAKE_BUILD_TYPE spelling.
inline const char* build_type() {
#ifdef NDEBUG
  return "Release";
#else
  return "Debug";
#endif
}

inline unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// The standard machine-parseable scaling note every bench header emits:
/// the fabric dimensions as key=value pairs derived from the config the
/// bench actually runs (several benches used to format this by hand, and
/// the hand-written numbers drifted), plus the machine fingerprint, then
/// `;` and the bench's free-text comparison to the paper setup.
inline std::string scaling_note(const ExperimentConfig& cfg,
                                const std::string& extra = "") {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "hosts=%d tor=%d leaf=%d host_gbps=%g fabric_gbps=%g "
                "buffer_mb=%g duration_ms=%g seed=%llu cc=%s build=%s "
                "hw_threads=%u",
                cfg.clos.n_tor * cfg.clos.hosts_per_tor, cfg.clos.n_tor,
                cfg.clos.n_leaf, to_gbps(cfg.clos.host_link),
                to_gbps(cfg.clos.fabric_link),
                static_cast<double>(cfg.clos.switch_cfg.buffer_bytes) /
                    (1024.0 * 1024.0),
                to_ms(cfg.duration),
                static_cast<unsigned long long>(cfg.seed),
                compiler_id().c_str(), build_type(), hardware_threads());
  std::string note = buf;
  if (!extra.empty()) note += "; " + extra;
  return note;
}

/// Observability flags shared by the benches: `--trace` turns on every
/// trace category plus per-MI counter scraping, `--tiny` asks the bench
/// for its smallest configuration (CI smoke), `--obs-out DIR` selects
/// where the JSON dumps land (default: current directory). Flight-recorder
/// flags: `--flight` arms the anomaly triggers (bundles land under
/// `<out_dir>/flight`), `--flight-fault` additionally injects the seeded
/// buffer-accounting fault mid-run so CI can trip a dump on demand, and
/// `--replay-flight BUNDLE_DIR` re-runs a bundle's seed with all tracing
/// on instead of the bench's normal run.
///
/// Parallel-execution flag: `--jobs N` sets the worker-thread count a
/// bench fans its runs over (0 = one per hardware thread, default 1 =
/// serial).
///
/// Perf-trend flags: `--perf` enables the event-loop PerfMonitor
/// (obs::PerfMonitor counters in the run's "perf" report section), and
/// `--perf-out FILE` additionally writes the bench's metrics as one
/// `paraleon.bench.v1` JSON document — the shape the committed
/// BENCH_*.json baselines use and tools/bench_trend.py compares.
///
/// Scenario-engine flags: `--grid-out FILE` writes the grid run's
/// `paraleon.grid.v1` document plus the worker-pool Perfetto timeline
/// next to it (see timeline_path), and `--grid-check` re-runs the grid
/// serially and byte-compares the deterministic half against the parallel
/// run (exit nonzero on any difference). A seed sweep is a grid with a
/// `seed` axis (docs/SCENARIOS.md).
///
/// Every flag lives in one table (kObsFlags); strip_obs_cli and obs_usage
/// both read it.
struct ObsCli {
  bool trace = false;
  bool tiny = false;
  bool flight = false;
  bool flight_fault = false;
  bool perf = false;
  std::string replay_bundle;  // empty = no replay requested
  std::string out_dir = ".";
  std::string perf_out;  // empty = no bench-trend artifact
  int jobs = 1;          // worker threads (0 = hardware)
  std::string grid_out;  // empty = no paraleon.grid.v1 artifact
  bool grid_check = false;  // re-run serially, byte-compare det half
};

/// The timeline path written next to a grid document: strip one trailing
/// ".json" and append ".timeline.json" (x.grid.json ->
/// x.grid.timeline.json).
inline std::string timeline_path(const std::string& grid_path) {
  const std::string suffix = ".json";
  std::string base = grid_path;
  if (base.size() > suffix.size() &&
      base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0) {
    base.resize(base.size() - suffix.size());
  }
  return base + ".timeline.json";
}

/// One ObsCli flag: its spelling, the value placeholder for flags that
/// take one (nullptr for switches), and how it lands in the ObsCli.
struct ObsFlag {
  const char* name;
  const char* metavar;
  void (*set)(ObsCli& cli, const char* value);
};

inline constexpr ObsFlag kObsFlags[] = {
    {"--tiny", nullptr, [](ObsCli& c, const char*) { c.tiny = true; }},
    {"--jobs", "N", [](ObsCli& c, const char* v) { c.jobs = std::atoi(v); }},
    {"--obs-out", "DIR", [](ObsCli& c, const char* v) { c.out_dir = v; }},
    {"--trace", nullptr, [](ObsCli& c, const char*) { c.trace = true; }},
    {"--flight", nullptr, [](ObsCli& c, const char*) { c.flight = true; }},
    {"--flight-fault", nullptr,
     [](ObsCli& c, const char*) { c.flight = c.flight_fault = true; }},
    {"--replay-flight", "BUNDLE_DIR",
     [](ObsCli& c, const char* v) { c.replay_bundle = v; }},
    {"--perf", nullptr, [](ObsCli& c, const char*) { c.perf = true; }},
    {"--perf-out", "FILE",
     [](ObsCli& c, const char* v) {
       c.perf = true;
       c.perf_out = v;
     }},
    {"--grid-out", "FILE", [](ObsCli& c, const char* v) { c.grid_out = v; }},
    {"--grid-check", nullptr,
     [](ObsCli& c, const char*) { c.grid_check = true; }},
};

/// The table entry for argv[i] when it is a complete ObsCli flag (a value
/// flag needs its value after it), else nullptr.
inline const ObsFlag* match_obs_flag(int argc, char** argv, int i) {
  for (const ObsFlag& f : kObsFlags) {
    if (std::strcmp(argv[i], f.name) != 0) continue;
    return f.metavar == nullptr || i + 1 < argc ? &f : nullptr;
  }
  return nullptr;
}

/// Reads every ObsCli flag in argv into `cli` and removes it (in place),
/// so the flags can coexist with another flag parser — google-benchmark
/// aborts on flags it does not know. Returns the new argc; anything left
/// past argv[0] is not an ObsCli flag (a value flag without its value
/// stays too).
inline int strip_obs_cli(int argc, char** argv, ObsCli* cli) {
  *cli = ObsCli{};
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const ObsFlag* f = match_obs_flag(argc, argv, i);
    if (f == nullptr) {
      argv[out++] = argv[i];
      continue;
    }
    f->set(*cli, f->metavar != nullptr ? argv[++i] : nullptr);
  }
  for (int i = out; i < argc; ++i) argv[i] = nullptr;
  return out;
}

/// The usage line of a bench: its positional arguments (`positional`,
/// e.g. " SCENARIO.json") and the flag table, after naming the `stray`
/// argument that was not understood (nullptr: none). Returns exit code 2.
inline int obs_usage(const char* argv0, const char* stray,
                     const char* positional = "") {
  if (stray != nullptr) {
    std::fprintf(stderr, "%s: unknown argument '%s'\n", argv0, stray);
  }
  std::fprintf(stderr, "usage: %s%s", argv0, positional);
  for (const ObsFlag& f : kObsFlags) {
    if (f.metavar != nullptr) {
      std::fprintf(stderr, " [%s %s]", f.name, f.metavar);
    } else {
      std::fprintf(stderr, " [%s]", f.name);
    }
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// The flags beyond the common set that a bench can honour. Every bench
/// honours --tiny, --jobs, --obs-out, --perf and --perf-out; the grid
/// benches also honour --grid-check.
enum BenchCaps : unsigned {
  kGridCheck = 1u << 0,  // --grid-check: the bench runs scenario grids
  kGridOut = 1u << 1,    // --grid-out: the bench runs exactly one grid
  kPerRunObs = 1u << 2,  // --trace, --flight*, --replay-flight
};

/// False, after saying why on stderr, when `cli` carries a flag outside
/// `caps`; the bench then exits 2.
inline bool honours_flags(const ObsCli& cli, unsigned caps,
                          const char* argv0) {
  const char* why = nullptr;
  if ((caps & kPerRunObs) == 0 &&
      (cli.trace || cli.flight || !cli.replay_bundle.empty())) {
    why = "--trace/--flight/--replay-flight: per-run artifacts only "
          "bench_fig8_influx and paraleon_run (single-run mode) write";
  } else if ((caps & kGridOut) == 0 && !cli.grid_out.empty()) {
    why = "--grid-out: this bench does not run exactly one grid";
  } else if ((caps & kGridCheck) == 0 && cli.grid_check) {
    why = "--grid-check: this bench runs no scenario grid";
  }
  if (why == nullptr) return true;
  std::fprintf(stderr, "%s: cannot honour %s\n", argv0, why);
  return false;
}

/// Parses argv for a bench that takes only ObsCli flags. An unknown
/// argument prints the usage line, and a flag outside `caps` prints why
/// the bench cannot honour it; both return false, and the bench exits 2.
inline bool parse_bench_cli(int argc, char** argv, unsigned caps,
                            ObsCli* cli) {
  if (strip_obs_cli(argc, argv, cli) != 1) {
    obs_usage(argv[0], argv[1]);
    return false;
  }
  return honours_flags(*cli, caps, argv[0]);
}

/// Applies the CLI to an experiment config: all trace categories on and
/// counters scraped once per millisecond of simulated time with `--trace`;
/// with `--flight`, anomaly triggers armed at thresholds that stay silent
/// on a healthy run but fire on a pause storm or drop burst.
inline void apply_obs_cli(const ObsCli& cli, ExperimentConfig& cfg) {
  if (cli.trace) {
    cfg.obs.trace = obs::TraceConfig::all_on();
    cfg.obs.counter_scrape_interval = milliseconds(1);
  }
  if (cli.perf) {
    cfg.obs.perf_counters = true;
  }
  if (cli.flight) {
    cfg.obs.flight.armed = true;
    cfg.obs.flight.dir = cli.out_dir + "/flight";
    // >5% of link-time paused fabric-wide, or any burst of MMU drops
    // (lossless fabrics should never drop), or an SA revert.
    cfg.obs.flight.pause_ns_per_sec = 50'000'000;
    cfg.obs.flight.drop_burst = 8;
    cfg.obs.flight.on_sa_revert = true;
  }
}

/// Writes one bench artifact through write_artifact and reports it:
/// `# <what>: wrote <path>` on stdout, or an error naming the path on
/// stderr. Returns false when the file was not written; the bench then
/// exits 2.
inline bool emit_artifact(const char* what, const std::string& path,
                          const std::string& text) {
  if (!write_artifact(path, text)) {
    std::fprintf(stderr, "# %s: FAILED to write %s\n", what, path.c_str());
    return false;
  }
  std::printf("# %s: wrote %s\n", what, path.c_str());
  return true;
}

/// Writes `<name>.trace.json` (Chrome trace-event format, Perfetto-
/// loadable) and `<name>.obs.json` (counter registry + episode timelines)
/// for a finished run. No-op unless --trace was given; false when a file
/// was not written.
inline bool dump_obs(const ObsCli& cli, const Experiment& exp,
                     const std::string& name) {
  if (!cli.trace) return true;
  const std::string base = cli.out_dir + "/" + name;
  return emit_artifact("obs", base + ".trace.json",
                       exp.simulator().obs().trace().to_json()) &&
         emit_artifact("obs", base + ".obs.json",
                       runner::obs_report_json(exp));
}

/// One `paraleon.bench.v1` document: the bench's headline metrics as
/// name -> {value, unit} plus the machine fingerprint. Written by
/// --perf-out, committed as the BENCH_*.json baselines, compared by
/// tools/bench_trend.py (gate fields — tolerances, direction — live only
/// in the baselines; a fresh run carries values).
class TrendReport {
 public:
  explicit TrendReport(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  void add(const std::string& name, double value,
           const std::string& unit = "") {
    metrics_[name] = {value, unit};
  }

  /// Serializes the document (sorted metric order, so reruns diff clean).
  std::string to_json() const {
    std::string out = "{\n  \"schema\": \"paraleon.bench.v1\",\n";
    out += "  \"bench\": \"" + bench_ + "\",\n";
    out += "  \"fingerprint\": {\"compiler\": \"" + compiler_id();
    out += "\", \"build_type\": \"" + std::string(build_type());
    out += "\", \"hardware_threads\": " + std::to_string(hardware_threads());
    out += "},\n  \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"" + name + "\": {\"value\": " + obs::format_value(m.value);
      if (!m.unit.empty()) out += ", \"unit\": \"" + m.unit + "\"";
      out += "}";
    }
    out += metrics_.empty() ? "}" : "\n  }";
    out += "\n}\n";
    return out;
  }

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::string bench_;
  std::map<std::string, Metric> metrics_;
};

/// The standard PerfMonitor metric block: every bench that ran an
/// instrumented experiment reports the same event-loop economics, so the
/// trend across benches is comparable. No-op while the monitor is off.
inline void add_perf_metrics(TrendReport& r, const Experiment& exp) {
  const obs::PerfMonitor& perf = exp.simulator().obs().perf();
  if (!perf.enabled()) return;
  r.add("events_executed", static_cast<double>(perf.events_executed()),
        "events");
  r.add("events_scheduled", static_cast<double>(perf.events_scheduled()),
        "events");
  r.add("max_queue_depth", static_cast<double>(perf.max_queue_depth()),
        "events");
  r.add("closure_heap_allocs",
        static_cast<double>(perf.closure_heap_allocs()), "allocs");
  r.add("packet_enqueues", static_cast<double>(perf.packet_enqueues()),
        "packets");
  // Wall metrics: machine-dependent — the baselines gate these loosely or
  // not at all (see docs/PERFORMANCE.md).
  r.add("wall_seconds", perf.wall_seconds(), "s");
  r.add("events_per_sec", perf.events_per_sec(), "events/s");
}

/// Writes the bench-trend artifact when --perf-out was given; false when
/// it was requested and not written.
inline bool write_trend(const ObsCli& cli, const TrendReport& report) {
  return cli.perf_out.empty() ||
         emit_artifact("perf", cli.perf_out, report.to_json());
}

/// Wall-clock stopwatch for bench-level timing (bench TUs are outside the
/// determinism-linted tree; simulation code must never use this).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Runs one scenario grid the way every grid front door does: the cells
/// fan out over --jobs with the CLI layered onto each config
/// (apply_obs_cli, then the bench's own opts.on_config), the pool is
/// observed for the grid document's wall half, and the wall time is
/// recorded. `report` then prints the bench's table from the finished
/// grid (what opts.on_cell harvested, plus grid.results()) and returns an
/// exit code; a nonzero one ends the run there. Then the paraleon.grid.v1
/// document goes to `grid_path` and the pool timeline to
/// timeline_path(grid_path) (both skipped when `grid_path` is empty) and,
/// with --grid-check, the grid re-runs serially under the same on_config
/// and its deterministic half is byte-compared. Returns the exit code: 0,
/// 1 on a grid-check mismatch, 2 on a failed write.
inline int run_bench_grid(
    const ObsCli& cli, const scenario::Scenario& sc,
    scenario::GridOptions opts,
    const std::function<int(const scenario::GridOutcome&)>& report,
    const std::string& grid_path = "") {
  opts.jobs = cli.jobs;
  opts.on_config = [&cli, extra = std::move(opts.on_config)](
                       const scenario::GridCell& cell,
                       ExperimentConfig& cfg) {
    apply_obs_cli(cli, cfg);
    if (extra) extra(cell, cfg);
  };
  obs::PoolTelemetry pool;
  opts.telemetry = &pool;
  const WallTimer wall;
  scenario::GridOutcome grid = scenario::run_grid(sc, opts);
  grid.set_wall_seconds(wall.seconds());
  if (const int rc = report(grid); rc != 0) return rc;
  if (!grid_path.empty() &&
      (!emit_artifact("grid", grid_path, grid.to_json()) ||
       !emit_artifact("grid", timeline_path(grid_path),
                      grid.timeline_json()))) {
    return 2;
  }
  if (!cli.grid_check) return 0;
  opts.jobs = 1;
  opts.telemetry = nullptr;
  opts.on_cell = nullptr;
  if (scenario::run_grid(sc, opts).to_json(false) != grid.to_json(false)) {
    std::fprintf(stderr,
                 "grid-check: deterministic half differs between jobs=%d "
                 "and jobs=1\n",
                 cli.jobs);
    return 1;
  }
  std::printf("# grid-check: deterministic half byte-identical at jobs=%d "
              "and jobs=1\n",
              cli.jobs);
  return 0;
}

/// A grid whose table is one printed fragment per cell: `row` formats a
/// finished cell on its worker thread (ending the line where the table
/// does), and the fragments print in cell order once the grid is done.
inline int run_row_grid(
    const ObsCli& cli, const scenario::Scenario& sc,
    const std::function<std::string(const scenario::GridCell&, Experiment&)>&
        row,
    scenario::GridOptions opts = {}, const std::string& grid_path = "") {
  std::vector<std::string> rows(scenario::expand_grid(sc).size());
  opts.on_cell = [&rows, &row](const scenario::GridCell& cell,
                               Experiment& exp) {
    rows[cell.index] = row(cell, exp);
  };
  const auto report = [&rows](const scenario::GridOutcome&) {
    for (const std::string& r : rows) std::printf("%s", r.c_str());
    return 0;
  };
  return run_bench_grid(cli, sc, std::move(opts), report, grid_path);
}

/// The main() of a bench: parses argv against `caps` (exit 2 on a bad
/// flag), runs `body`, which prints the tables and may add trend rows (a
/// ScenarioError exits 2), prints `shape`, the paper-shape note under
/// the tables, and writes the bench's wall time as a trend row.
inline int bench_main(int argc, char** argv, unsigned caps, ObsCli* cli,
                      const char* bench, const char* shape,
                      const std::function<int(TrendReport&)>& body) {
  if (!parse_bench_cli(argc, argv, caps, cli)) return 2;
  const WallTimer wall;
  TrendReport trend(bench);
  try {
    if (const int rc = body(trend); rc != 0) return rc;
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 2;
  }
  std::fputs(shape, stdout);
  trend.add("wall_seconds", wall.seconds(), "s");
  return write_trend(*cli, trend) ? 0 : 2;
}

/// A committed scenarios/ file, with its tiny overlay under --tiny. The
/// bench CMake bakes the repo's scenarios/ directory in as
/// PARALEON_SCENARIO_DIR so the benches find their files from any build
/// or working directory; the relative fallback keeps ad-hoc compiles run
/// from the repo root working.
inline scenario::Scenario load_bench_scenario(const ObsCli& cli,
                                              const std::string& file) {
#ifdef PARALEON_SCENARIO_DIR
  const std::string dir = PARALEON_SCENARIO_DIR;
#else
  const std::string dir = "scenarios";
#endif
  return scenario::load_scenario_file(dir + "/" + file, cli.tiny);
}

/// "Default", "PARALEON", ...: a cell's scheme as the tables print it.
inline std::string cell_scheme(const scenario::GridCell& cell) {
  return runner::scheme_name(
      scenario::scheme_from_name(cell.scenario.scheme.name));
}

}  // namespace paraleon::bench
