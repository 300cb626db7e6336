// paraleon_bench: the repository's benchmark harness.
//
//   paraleon_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--tiny] [--scenarios DIR] [--out DIR]
//
// Runs one named workload, drawn from the committed scenarios/ files,
// through the scenario engine (parse -> expand_grid -> Experiment /
// run_grid) and times each layer from outside, around the calls into its
// public functions. It adds no instrumentation to the program: the traced
// run (--trace 1) switches on the program's own loop profiler and perf
// counters and reads them next to runner::scrape_run.
//
// Every pass re-runs the same inputs, so every cell's run_digest must
// repeat exactly; a throw, a non-finite metric or a digest that moves
// between passes is a failed operation and makes the exit code nonzero.
// The result is written to <out>/<workload>.result.json (and the spans of
// a traced run to <out>/<workload>.trace.json); paraleon_bench/run.py
// turns the result into the benchmark's one-line report. See
// paraleon_bench/README.md for the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/fleet.hpp"
#include "runner/experiment.hpp"
#include "runner/sweep_report.hpp"
#include "scenario/flow_scheduler.hpp"
#include "scenario/grid_runner.hpp"
#include "scenario/scenario.hpp"
#include "spans.hpp"
#include "stats/percentile.hpp"

namespace {

using paraleon::Time;
using paraleon::bench::SpanLog;
using paraleon::milliseconds;
using paraleon::runner::Experiment;
using paraleon::runner::ExperimentConfig;
using paraleon::scenario::GridCell;
using paraleon::scenario::Json;
using paraleon::scenario::Scenario;
using Clock = std::chrono::steady_clock;
using Ledger = std::map<std::string, double>;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Workloads and metric names
// ---------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  const char* file;
  /// Coordinates of the one grid cell to run, stepped in 1 ms slices on
  /// the calling thread; empty = the whole grid through run_grid.
  std::vector<std::pair<const char*, const char*>> cell;
  /// Distinct input seeds per run (base, base+1, ...). Fixed per workload
  /// so the simulated metrics are a function of --seed alone; more than
  /// one where a cell is cheap enough, to damp seed-to-seed spread.
  int seeds;
  /// Workload component whose [start_ms, stop_ms) window the RTT metric
  /// covers; "" = the scenario's metric window.
  const char* rtt_component;
};

// influx: engine, NetDevice and DCQCN bound, with a phase change that
// triggers tuning. multitenant_grid: flow churn, exec scheduling, and
// default next to paraleon. alltoall32: deepest queues; too slow for more
// than one input a run, so BENCHMARK.json does not drive it (README.md).
const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"alltoall32", "fig13_alltoall.json",
       {{"scheme.name", "paraleon"}, {"workload.collective.workers", "32"}},
       1, ""},
      {"influx", "fig8_influx.json", {{"scheme.name", "paraleon"}}, 4,
       "burst"},
      {"multitenant_grid", "mixed_multitenant.json", {}, 6, ""},
  };
  return defs;
}

/// Pool workers for a whole-grid workload: two, so the pool's scheduling
/// of imbalanced cells shows in the run.
constexpr int kGridJobs = 2;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The traced run's ledger; BENCHMARK.json lists the same names, and
// run.py refuses a result that lacks any of them.
const MetricDef kPerLayer[] = {
    {"scenario.parse_s", "s"},
    {"runner.build_s", "s"},
    {"runner.digest_s", "s"},
    {"sim.events_executed", "count"},
    {"sim.events_scheduled", "count"},
    {"sim.max_queue_depth", "count"},
    {"sim.closure_heap_allocs", "count"},
    {"sim.engine_self_s", "s"},
    {"net.serialize_s", "s"},
    {"net.serialize.n", "count"},
    {"net.propagate_s", "s"},
    {"net.propagate.n", "count"},
    {"net.packet_enqueues", "count"},
    {"net.pause_kick.n", "count"},
    {"switch.pause_scan_s", "s"},
    {"switch.ecn_marks", "count"},
    {"switch.pfc_pauses_sent", "count"},
    {"switch.mmu_drops", "count"},
    {"host.rp_timer_s", "s"},
    {"host.rp_timer.n", "count"},
    {"host.pacing_s", "s"},
    {"host.pacing.n", "count"},
    {"dcqcn.rp_cuts", "count"},
    {"dcqcn.cnp_sent", "count"},
    {"dcqcn.cnp_suppressed", "count"},
    {"dcqcn.cnp_sent_ratio", "ratio"},
    {"sketch.insertions", "count"},
    {"sketch.evictions", "count"},
    {"sketch.evict_ratio", "ratio"},
    {"core.mi_tick_s", "s"},
    {"core.controller_cpu_s", "s"},
    {"core.episodes", "count"},
    {"core.sa_iterations", "count"},
    {"core.reverts", "count"},
    {"core.revert_ratio", "ratio"},
    {"workload.flows_started", "count"},
    {"stats.flows_finished", "count"},
    {"workload.inject_s", "s"},
    {"exec.util_pct", "%"},
    {"exec.idle_s", "s"},
    {"exec.longest_cell_s", "s"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.perf_overhead_pct", "%"},
};

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

struct Options {
  const WorkloadDef* workload = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;
  std::string scenarios = "scenarios";
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "paraleon_bench: %s\n"
               "usage: paraleon_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                      [--tiny] [--scenarios DIR] "
               "[--out DIR]\n"
               "workloads: alltoall32 influx multitenant_grid\n",
               why.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        const std::string name = value();
        for (const auto& w : workloads()) {
          if (name == w.name) o.workload = &w;
        }
        if (o.workload == nullptr) usage("unknown workload " + name);
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (arg == "--tiny") {
        o.tiny = true;
      } else if (arg == "--scenarios") {
        o.scenarios = value();
      } else if (arg == "--out") {
        o.out = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// ---------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------

/// Creates the parent directories, writes, and throws unless every byte
/// reached the file.
void write_artifact(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Rendered the way paraleon_run prints digests, so the two compare
/// textually.
std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string compiler_id() {
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

#ifndef PARALEON_BENCH_BUILD_TYPE
#define PARALEON_BENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// One input of the run: a scenario seed. nullopt keeps every committed
/// seed (the form whose digests paraleon_run reproduces).
using Unit = std::optional<std::uint64_t>;

/// Reads and parses the workload's scenario. A seed replaces the scenario
/// seed and drops every explicit component seed, so each component's
/// stream is re-derived from the new seed and its name (FlowScheduler's
/// rule for unseeded components).
Scenario load(const Options& o, const Unit& seed) {
  const std::string path = o.scenarios + "/" + o.workload->file;
  Json doc = Json::parse(read_file(path), path);
  if (seed) {
    doc.set("seed", Json::make_int(static_cast<std::int64_t>(*seed)));
    if (Json* comps = doc.find("workload")) {
      for (Json& c : comps->items()) c.erase("seed");
    }
  }
  return paraleon::scenario::parse_scenario(doc, path, o.tiny);
}

std::string render(const Json& v) {
  return v.is_string() ? v.as_string() : v.dump();
}

std::string coords_label(const GridCell& cell) {
  std::string out;
  for (const auto& [key, value] : cell.coords) {
    if (!out.empty()) out += " ";
    out += key + "=" + render(value);
  }
  return out.empty() ? "-" : out;
}

/// The coordinates without the scheme axis: cells that share it are the
/// matched default/paraleon pairs.
std::string pair_key(const GridCell& cell) {
  std::string out;
  for (const auto& [key, value] : cell.coords) {
    if (key != "scheme.name") out += key + "=" + render(value) + " ";
  }
  return out;
}

std::size_t select_cell(const std::vector<GridCell>& cells,
                        const WorkloadDef& w) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    bool match = cells[i].coords.size() == w.cell.size();
    for (const auto& [key, want] : w.cell) {
      bool found = false;
      for (const auto& [k, v] : cells[i].coords) {
        if (k == key && render(v) == want) found = true;
      }
      match = match && found;
    }
    if (match) return i;
  }
  throw std::runtime_error(std::string("no grid cell matches workload ") +
                           w.name);
}

// ---------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------

enum class Mode { kPlain, kPerf, kTraced };

void apply_mode(ExperimentConfig& cfg, Mode mode) {
  cfg.obs.perf_counters = mode != Mode::kPlain;
  cfg.obs.profile_loop = mode == Mode::kTraced;
}

/// What one cell of one pass produced.
struct CellOut {
  std::size_t index = 0;
  std::string coords;
  std::string pair;
  bool paraleon = false;
  std::uint64_t digest = 0;
  double value = 0.0;
  double goodput_gbps = 0.0;
  double rtt_us = 0.0;
  double fct_p99 = 0.0;
  std::uint64_t events = 0;
  double controller_cpu_s = 0.0;
  std::uint64_t mi_ticks = 0;
  /// Host seconds: the stepped run phase (single cell) or the cell's
  /// whole life on its pool worker, build to digest (grid).
  double host_s = 0.0;
  Ledger layers;  // traced passes only
};

struct PassOut {
  Mode mode = Mode::kPlain;
  double run_s = 0.0;
  double digest_s = 0.0;
  std::vector<CellOut> cells;
  /// Host ms per simulated ms: per 1 ms slice (single cell) or per cell.
  std::vector<double> slice_ms;
  /// Pool facts (whole-grid workloads).
  double pool_util_pct = 100.0;
  double pool_idle_s = 0.0;
  double longest_cell_s = 0.0;
};

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer ledger of one finished, traced Experiment.
Ledger harvest_layers(const Experiment& exp,
                      const paraleon::runner::RunScrape& scrape) {
  Ledger l;
  const auto& obs = exp.simulator().obs();
  const auto& perf = obs.perf();
  const auto& prof = obs.profiler();
  l["sim.events_executed"] = static_cast<double>(perf.events_executed());
  l["sim.events_scheduled"] = static_cast<double>(perf.events_scheduled());
  l["sim.max_queue_depth"] = static_cast<double>(perf.max_queue_depth());
  l["sim.closure_heap_allocs"] =
      static_cast<double>(perf.closure_heap_allocs());
  l["sim.engine_self_s"] = perf.wall_seconds() - prof.wall_seconds();
  l["net.packet_enqueues"] = static_cast<double>(perf.packet_enqueues());

  // Per-tag callback time and count. Untagged callbacks are mostly the
  // workload generators' arrivals and rounds (plus the throughput probe
  // of schemes without a controller): charged to workload.inject.
  for (const auto& [tag, st] : prof.by_tag()) {
    const std::string name = tag == "(untagged)" ? "workload.inject" : tag;
    l[name + "_s"] += static_cast<double>(st.total_ns) / 1e9;
    l[name + ".n"] += static_cast<double>(st.count);
  }

  for (const auto& [name, v] : scrape.instruments) {
    if (starts_with(name, "switch.")) {
      if (ends_with(name, ".ecn.marks")) l["switch.ecn_marks"] += v;
      if (ends_with(name, ".pfc.pauses_sent")) {
        l["switch.pfc_pauses_sent"] += v;
      }
      if (ends_with(name, ".mmu.drops")) l["switch.mmu_drops"] += v;
    } else if (starts_with(name, "host.")) {
      if (ends_with(name, ".rp.cuts")) l["dcqcn.rp_cuts"] += v;
      if (ends_with(name, ".cnp.sent")) l["dcqcn.cnp_sent"] += v;
      if (ends_with(name, ".cnp.suppressed")) l["dcqcn.cnp_suppressed"] += v;
    } else if (starts_with(name, "sketch.")) {
      if (ends_with(name, ".insertions")) l["sketch.insertions"] += v;
      if (ends_with(name, ".evictions")) l["sketch.evictions"] += v;
    }
  }

  for (const auto& c : exp.controllers()) {
    l["core.controller_cpu_s"] += c->overheads().controller_cpu_seconds;
    l["core.episodes"] += static_cast<double>(c->episodes());
    l["core.sa_iterations"] += c->tuner().iterations_done();
    l["core.reverts"] += static_cast<double>(c->reverts());
  }
  l["workload.flows_started"] = static_cast<double>(scrape.flows_started);
  l["stats.flows_finished"] = static_cast<double>(scrape.flows_finished);
  return l;
}

/// The deterministic outcome of a finished cell plus its controller cost.
CellOut describe_cell(const WorkloadDef& w, const GridCell& cell,
                      Experiment& exp, std::uint64_t digest, double value) {
  CellOut c;
  c.index = cell.index;
  c.coords = coords_label(cell);
  c.pair = pair_key(cell);
  c.paraleon = cell.scenario.scheme.name == "paraleon";
  c.digest = digest;
  c.value = value;

  const Scenario& sc = cell.scenario;
  const bool single = !w.cell.empty();
  Scenario probe = sc;
  // Goodput: the scenario's own window on a single cell (its headline
  // metric), the whole run on grid cells.
  probe.metric = {"tput_mean_gbps", single ? sc.metric.from_ms : 0.0,
                  single ? sc.metric.to_ms : -1.0};
  c.goodput_gbps = paraleon::scenario::evaluate_metric(probe, exp);
  probe.metric.name = "rtt_mean_us";
  for (const auto& comp : sc.workload) {
    if (comp.name == w.rtt_component) {
      probe.metric.from_ms = comp.start_ms;
      probe.metric.to_ms = comp.stop_ms;
    }
  }
  c.rtt_us = paraleon::scenario::evaluate_metric(probe, exp);
  probe.metric = {"fct_p99_slowdown", 0.0, -1.0};
  c.fct_p99 = paraleon::scenario::evaluate_metric(probe, exp);
  c.events = exp.simulator().events_executed();
  for (const auto& ctl : exp.controllers()) {
    c.controller_cpu_s += ctl->overheads().controller_cpu_seconds;
    c.mi_ticks += ctl->overheads().mi_ticks;
  }
  return c;
}

/// A built, not yet run, experiment for one cell (the set-up phase). The
/// scheduler refers to the cell's scenario, which must outlive it.
struct Built {
  std::unique_ptr<Experiment> exp;
  std::unique_ptr<paraleon::scenario::FlowScheduler> flows;
};

Built build_cell(const GridCell& cell, Mode mode) {
  ExperimentConfig cfg =
      paraleon::scenario::to_experiment_config(cell.scenario);
  apply_mode(cfg, mode);
  Built b;
  b.exp = std::make_unique<Experiment>(cfg);
  b.flows = std::make_unique<paraleon::scenario::FlowScheduler>(cell.scenario,
                                                                b.exp.get());
  b.flows->install_all();
  if (cell.scenario.scheme.force_trigger && b.exp->controller() != nullptr) {
    b.exp->controller()->force_trigger();
  }
  return b;
}

class Runner {
 public:
  explicit Runner(const Options& o) : o_(o), w_(*o.workload) {}

  /// Parse + expand + build (+ install) every cell of the unit and
  /// discard them: the set-up phase alone. Returns {parse_s, build_s}.
  std::pair<double, double> setup(const Unit& unit, SpanLog* spans,
                                  int parent) {
    const auto t0 = Clock::now();
    const int ps = spans ? spans->open("scenario.parse", parent) : -1;
    const Scenario sc = load(o_, unit);
    std::vector<GridCell> cells = paraleon::scenario::expand_grid(sc);
    if (!w_.cell.empty()) {
      GridCell keep = cells[select_cell(cells, w_)];
      cells.assign(1, std::move(keep));
    }
    if (spans) spans->close(ps);
    const double parse_s = since(t0);
    const auto t1 = Clock::now();
    for (const GridCell& cell : cells) {
      const int bs = spans ? spans->open("runner.build", parent,
                                         static_cast<int>(cell.index))
                           : -1;
      Built b = build_cell(cell, Mode::kPlain);
      if (spans) spans->close(bs);
    }
    return {parse_s, since(t1)};
  }

  PassOut pass(const Unit& unit, Mode mode, SpanLog* spans) {
    PassOut p = w_.cell.empty() ? grid_pass(unit, mode, spans)
                                : single_pass(unit, mode, spans);
    p.mode = mode;
    return p;
  }

 private:
  PassOut single_pass(const Unit& unit, Mode mode, SpanLog* spans) {
    PassOut p;
    const int root = spans ? spans->open("pass", -1) : -1;
    const int ps = spans ? spans->open("scenario.parse", root) : -1;
    const Scenario sc = load(o_, unit);
    const std::vector<GridCell> cells = paraleon::scenario::expand_grid(sc);
    const GridCell& cell = cells[select_cell(cells, w_)];
    if (spans) spans->close(ps);

    const int bs = spans ? spans->open("runner.build", root) : -1;
    Built b = build_cell(cell, mode);
    if (spans) spans->close(bs);

    // The run phase in 1 ms slices of simulated time; stepping leaves the
    // event order, and so run_digest, unchanged.
    Experiment& exp = *b.exp;
    const Time end = exp.config().duration;
    const int rs = spans ? spans->open("run", root) : -1;
    for (Time from = 0; from < end;) {
      const Time to = std::min(from + milliseconds(1), end);
      const auto s0 = Clock::now();
      exp.run_until(to);
      const double slice = since(s0);
      p.run_s += slice;
      p.slice_ms.push_back(slice * 1e3 / paraleon::to_ms(to - from));
      from = to;
    }
    if (spans) {
      spans->close(rs);
      attach_tags(*spans, rs, exp);
    }

    const auto t = Clock::now();
    const int ds = spans ? spans->open("runner.digest", root) : -1;
    const std::uint64_t digest = paraleon::runner::run_digest(exp);
    const double value =
        paraleon::scenario::evaluate_metric(cell.scenario, exp);
    const auto scrape = paraleon::runner::scrape_run(exp);
    if (spans) spans->close(ds);
    p.digest_s = since(t);

    CellOut c = describe_cell(w_, cell, exp, digest, value);
    c.host_s = p.run_s;
    if (mode == Mode::kTraced) c.layers = harvest_layers(exp, scrape);
    p.cells.push_back(std::move(c));
    p.longest_cell_s = p.run_s;
    if (spans) spans->close(root);
    return p;
  }

  PassOut grid_pass(const Unit& unit, Mode mode, SpanLog* spans) {
    PassOut p;
    const int root = spans ? spans->open("pass", -1) : -1;
    const Scenario sc = load(o_, unit);
    const std::size_t n = paraleon::scenario::expand_grid(sc).size();

    // Slots indexed by cell: the hooks run on pool workers.
    std::vector<Clock::time_point> start(n);
    std::vector<int> cell_span(n, -1);
    std::vector<CellOut> outs(n);
    std::vector<double> digest_s(n, 0.0);
    const int grid_span = spans ? spans->open("run_grid", root) : -1;
    paraleon::obs::PoolTelemetry pool;
    paraleon::scenario::GridOptions opts;
    opts.jobs = kGridJobs;
    opts.telemetry = &pool;
    opts.on_config = [&](const GridCell& cell, ExperimentConfig& cfg) {
      apply_mode(cfg, mode);
      start[cell.index] = Clock::now();
      if (spans) {
        cell_span[cell.index] =
            spans->open("cell", grid_span, static_cast<int>(cell.index));
      }
    };
    opts.on_cell = [&](const GridCell& cell, Experiment& exp) {
      const double host_s = since(start[cell.index]);
      if (spans) spans->close(cell_span[cell.index]);
      CellOut c = describe_cell(w_, cell, exp, 0, 0.0);
      c.host_s = host_s;
      if (mode == Mode::kTraced) {
        // run_grid digests the cell before this hook; digest it again,
        // timed, to charge the digest layer from outside.
        const auto t = Clock::now();
        c.digest = paraleon::runner::run_digest(exp);
        digest_s[cell.index] = since(t);
        c.layers = harvest_layers(exp, paraleon::runner::scrape_run(exp));
        attach_tags(*spans, cell_span[cell.index], exp);
      }
      outs[cell.index] = std::move(c);
    };

    const auto t = Clock::now();
    const auto outcome = paraleon::scenario::run_grid(sc, opts);
    p.run_s = since(t);
    if (spans) spans->close(grid_span);

    for (const auto& r : outcome.results()) {
      CellOut& c = outs[r.index];
      if (mode == Mode::kTraced && c.digest != r.digest) {
        throw std::runtime_error("cell " + std::to_string(r.index) +
                                 ": run_digest is not repeatable");
      }
      c.digest = r.digest;
      c.value = r.value;
      p.digest_s += digest_s[r.index];
      p.slice_ms.push_back(c.host_s * 1e3 /
                           outcome.cells()[r.index].scenario.duration_ms);
      p.longest_cell_s = std::max(p.longest_cell_s, c.host_s);
      p.cells.push_back(std::move(c));
    }
    std::int64_t busy = 0;
    std::int64_t idle = 0;
    for (const auto& ws : pool.worker_stats()) {
      busy += ws.busy_ns;
      idle += ws.idle_ns;
    }
    p.pool_util_pct = 100.0 * ratio(static_cast<double>(busy),
                                     static_cast<double>(busy + idle));
    p.pool_idle_s = static_cast<double>(idle) / 1e9;
    if (spans) spans->close(root);
    return p;
  }

  /// The loop profiler's per-tag callback totals as children of `parent`.
  static void attach_tags(SpanLog& spans, int parent, const Experiment& exp) {
    for (const auto& [tag, st] : exp.simulator().obs().profiler().by_tag()) {
      spans.add_total(tag, parent, static_cast<double>(st.total_ns) / 1e9);
    }
  }

  const Options& o_;
  const WorkloadDef& w_;
};

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;
};

/// Every pass of one unit (seed), the first of which defines the digests.
struct UnitRuns {
  Unit seed;
  std::vector<PassOut> passes;
  std::vector<double> setup_s;
};

class Bench {
 public:
  explicit Bench(const Options& o)
      : o_(o), runner_(o), epoch_(Clock::now()) {}

  int run() {
    std::printf("# paraleon_bench workload=%s trace=%d seconds=%g tiny=%d "
                "fingerprint: compiler=%s build=%s nproc=%u\n",
                o_.workload->name, o_.trace ? 1 : 0, o_.seconds,
                o_.tiny ? 1 : 0, compiler_id().c_str(),
                PARALEON_BENCH_BUILD_TYPE, std::thread::hardware_concurrency());
    Json cells = Json::make_array();
    std::map<std::string, Metric> metrics;
    try {
      units_ = make_units();
      if (o_.trace) {
        traced(metrics);
      } else {
        untraced(metrics);
      }
      cells = cell_table();
    } catch (const std::exception& e) {
      // Anything thrown outside a counted pass (bad scenario path, parse
      // error) fails the whole run.
      std::fprintf(stderr, "paraleon_bench: %s\n", e.what());
      ++failed_;
      ++attempted_;
    }
    for (const auto& [name, m] : metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "paraleon_bench: metric %s is not finite\n",
                     name.c_str());
        ++failed_;
      }
    }
    print_metrics(metrics);

    Json doc = Json::make_object();
    doc.set("schema", Json::make_string("paraleon.benchrun.v1"));
    doc.set("workload", Json::make_string(o_.workload->name));
    doc.set("trace", Json::make_bool(o_.trace));
    doc.set("tiny", Json::make_bool(o_.tiny));
    Json fp = Json::make_object();
    fp.set("compiler", Json::make_string(compiler_id()));
    fp.set("build_type", Json::make_string(PARALEON_BENCH_BUILD_TYPE));
    fp.set("nproc", Json::make_int(std::thread::hardware_concurrency()));
    doc.set("fingerprint", std::move(fp));
    doc.set("correct", Json::make_bool(failed_ == 0));
    doc.set("attempted",
            Json::make_int(static_cast<std::int64_t>(attempted_)));
    doc.set("failed", Json::make_int(static_cast<std::int64_t>(failed_)));
    doc.set("cells", std::move(cells));
    doc.set("metrics", metrics_json(metrics));
    doc.set("reported", metrics_json(reported_));

    const std::string base = o_.out + "/" + o_.workload->name;
    try {
      write_artifact(base + ".result.json", doc.dump() + "\n");
      std::printf("# wrote %s.result.json\n", base.c_str());
      if (spans_ != nullptr) {
        Json t = Json::make_object();
        t.set("schema", Json::make_string("paraleon.benchtrace.v1"));
        t.set("workload", Json::make_string(o_.workload->name));
        t.set("spans", spans_->to_json());
        // Host ms per simulated ms of the traced pass, in order: which
        // stretch of simulated time was expensive.
        Json slices = Json::make_array();
        for (const double v : traced_slices_) {
          slices.push_back(Json::make_number(v));
        }
        t.set("slices_ms", std::move(slices));
        write_artifact(base + ".trace.json", t.dump() + "\n");
        std::printf("# wrote %s.trace.json\n", base.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "paraleon_bench: %s\n", e.what());
      return 2;
    }
    std::printf("# attempted=%zu failed=%zu\n", attempted_, failed_);
    return failed_ == 0 ? 0 : 1;
  }

 private:
  /// Unit k of --seed N uses seed N * K + k (K units a run), so runs with
  /// different seeds never share an input. Without --seed, unit 0 keeps
  /// the committed seeds and unit k uses the committed seed + k.
  std::vector<UnitRuns> make_units() {
    std::vector<UnitRuns> units(static_cast<std::size_t>(o_.workload->seeds));
    const std::uint64_t base = o_.seed ? *o_.seed * units.size()
                                       : load(o_, std::nullopt).seed;
    for (std::size_t i = 0; i < units.size(); ++i) {
      if (o_.seed || i > 0) units[i].seed = base + i;
    }
    return units;
  }

  double elapsed() const { return since(epoch_); }

  /// name -> {value, unit, n}; a non-finite value becomes null.
  static Json metrics_json(const std::map<std::string, Metric>& metrics) {
    Json out = Json::make_object();
    for (const auto& [name, m] : metrics) {
      Json j = Json::make_object();
      j.set("value", std::isfinite(m.value) ? Json::make_number(m.value)
                                            : Json::make_null());
      j.set("unit", Json::make_string(m.unit));
      j.set("n", Json::make_int(static_cast<std::int64_t>(m.n)));
      out.set(name, std::move(j));
    }
    return out;
  }

  /// Runs one counted pass and checks its cells against the unit's first
  /// pass. Returns false (and counts the failure) when it throws or a
  /// digest moves.
  bool counted_pass(UnitRuns& u, Mode mode, SpanLog* spans) {
    const std::size_t cells =
        u.passes.empty() ? 1 : u.passes.front().cells.size();
    PassOut p;
    try {
      p = runner_.pass(u.seed, mode, spans);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "paraleon_bench: pass failed: %s\n", e.what());
      attempted_ += cells;
      failed_ += cells;
      return false;
    }
    bool ok = true;
    for (std::size_t i = 0; i < p.cells.size(); ++i) {
      ++attempted_;
      const CellOut& c = p.cells[i];
      bool cell_ok = std::isfinite(c.value) &&
                     std::isfinite(c.goodput_gbps) &&
                     std::isfinite(c.rtt_us) && std::isfinite(c.fct_p99);
      if (!u.passes.empty() && u.passes.front().cells[i].digest != c.digest) {
        std::fprintf(stderr,
                     "paraleon_bench: cell %zu digest %s differs from the "
                     "first pass's %s\n",
                     c.index, hex(c.digest).c_str(),
                     hex(u.passes.front().cells[i].digest).c_str());
        cell_ok = false;
      }
      if (!cell_ok) {
        ++failed_;
        ok = false;
      }
    }
    u.passes.push_back(std::move(p));
    return ok;
  }

  /// Set-up samples: at least `n` per unit, also warming the allocator.
  void setup_samples(std::size_t n) {
    for (UnitRuns& u : units_) {
      while (u.setup_s.size() < n) {
        const auto [parse_s, build_s] = runner_.setup(u.seed, nullptr, -1);
        u.setup_s.push_back(parse_s + build_s);
      }
    }
  }

  void untraced(std::map<std::string, Metric>& out) {
    setup_samples(25);
    // Peak RSS once the first input has run: a function of --seed alone,
    // where the peak over every input would follow the heaviest of them.
    double peak_rss_mb = 0.0;
    for (UnitRuns& u : units_) {
      if (!counted_pass(u, Mode::kPlain, nullptr)) return;
      if (&u == &units_.front()) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
      }
    }
    // Repeat passes round-robin while the budget lasts; unit 0 is
    // repeated at least once so every run checks determinism.
    for (std::size_t i = 0;; ++i) {
      UnitRuns& u = units_[i % units_.size()];
      const double est = median(pass_seconds(u));
      if (i > 0 && elapsed() + est > o_.seconds) break;
      if (!counted_pass(u, Mode::kPlain, nullptr)) return;
    }

    // Host time from per-pass medians, so one pass slowed by a noisy
    // neighbour does not move the run: the median event rate and the
    // median controller cost per tick over every pass, with wall_s the
    // events of one pass over every unit at that rate.
    std::vector<double> rate;
    std::vector<double> ctl_ms;
    std::vector<double> slices;
    std::vector<double> goodput;
    double events = 0.0;
    double ticks = 0.0;
    double setup = 0.0;
    std::size_t setups = 0;
    for (const UnitRuns& u : units_) {
      setup += median(u.setup_s);
      setups += u.setup_s.size();
      for (const PassOut& p : u.passes) {
        slices.insert(slices.end(), p.slice_ms.begin(), p.slice_ms.end());
        double ev = 0.0;
        double cpu = 0.0;
        double mi = 0.0;
        for (const CellOut& c : p.cells) {
          ev += static_cast<double>(c.events);
          cpu += c.controller_cpu_s;
          mi += static_cast<double>(c.mi_ticks);
        }
        rate.push_back(ev / p.run_s);
        if (mi > 0.0) ctl_ms.push_back(cpu * 1e3 / mi);
      }
      for (const CellOut& c : u.passes.front().cells) {
        events += static_cast<double>(c.events);
        ticks += static_cast<double>(c.mi_ticks);
        if (c.paraleon) goodput.push_back(c.goodput_gbps);
      }
    }
    out["wall_s"] = {events / median(rate), "s", rate.size()};
    out["events_per_s"] = {median(rate), "1/s", rate.size()};
    out["setup_s"] = {setup, "s", setups};
    out["peak_rss_mb"] = {peak_rss_mb, "MB", 1};
    out["slice_ms_p50"] = {paraleon::stats::quantile(slices, 0.50), "ms/ms",
                           slices.size()};
    out["slice_ms_p95"] = {paraleon::stats::quantile(slices, 0.95), "ms/ms",
                           slices.size()};
    // No controller ticks at all would leave it non-finite: a failure.
    out["controller_ms_per_mi"] = {ctl_ms.empty() ? NAN : median(ctl_ms), "ms",
                                   static_cast<std::size_t>(ticks)};
    out["goodput_gbps"] = {geomean(goodput), "Gbps", goodput.size()};
    reported_sim();
  }

  /// Host seconds of each pass's run phase.
  static std::vector<double> pass_seconds(const UnitRuns& u) {
    std::vector<double> s;
    for (const PassOut& p : u.passes) s.push_back(p.run_s);
    return s;
  }

  /// The simulated metrics too seed-sensitive to gate (one tuning
  /// decision moves them by tens of percent): printed and recorded only.
  /// Where the workload has matched default/paraleon cells, also the
  /// north-star comparison: 100 * (geomean of default p99 / paraleon p99
  /// over the matched pairs - 1).
  void reported_sim() {
    std::vector<double> rtt;
    std::vector<double> fct;
    std::vector<double> ratios;
    for (const UnitRuns& u : units_) {
      const auto& cells = u.passes.front().cells;
      for (const CellOut& c : cells) {
        if (c.paraleon) {
          rtt.push_back(c.rtt_us);
          fct.push_back(c.fct_p99);
          continue;
        }
        for (const CellOut& p : cells) {
          if (p.paraleon && p.pair == c.pair) {
            ratios.push_back(c.value / p.value);
          }
        }
      }
    }
    reported_["rtt_us"] = {geomean(rtt), "us", rtt.size()};
    reported_["fct_p99_slowdown"] = {geomean(fct), "x", fct.size()};
    if (!ratios.empty()) {
      reported_["paraleon_vs_default_pct"] = {100.0 * (geomean(ratios) - 1.0),
                                              "%", ratios.size()};
    }
  }

  void traced(std::map<std::string, Metric>& out) {
    UnitRuns& u = units_.front();
    spans_ = std::make_unique<SpanLog>(epoch_);
    const int setup_span = spans_->open("setup", -1);
    const auto [parse_s, build_s] =
        runner_.setup(u.seed, spans_.get(), setup_span);
    spans_->close(setup_span);

    // A reference pass, a perf-on/off pair and the traced pass over one
    // input, then more pairs (alternating order) while the budget lasts.
    // All digests must agree: profiling must not perturb the run.
    std::vector<double> perf_pct;
    const auto pair = [&](bool perf_first) {
      const Mode first = perf_first ? Mode::kPerf : Mode::kPlain;
      const Mode second = perf_first ? Mode::kPlain : Mode::kPerf;
      if (!counted_pass(u, first, nullptr) ||
          !counted_pass(u, second, nullptr)) {
        return false;
      }
      const double a = u.passes[u.passes.size() - 2].run_s;
      const double b = u.passes.back().run_s;
      perf_pct.push_back(100.0 * ((perf_first ? a / b : b / a) - 1.0));
      return true;
    };
    if (!counted_pass(u, Mode::kPlain, nullptr) || !pair(true) ||
        !counted_pass(u, Mode::kTraced, spans_.get())) {
      return;
    }
    const std::size_t traced_pass = u.passes.size() - 1;
    const double plain_s = u.passes.front().run_s;
    for (bool perf_first = false;; perf_first = !perf_first) {
      if (elapsed() + 2.0 * plain_s > o_.seconds) break;
      if (!pair(perf_first)) return;
    }
    std::vector<double> plain;
    for (const PassOut& p : u.passes) {
      if (p.mode == Mode::kPlain) plain.push_back(p.run_s);
    }
    const PassOut& tp = u.passes[traced_pass];
    traced_slices_ = tp.slice_ms;

    Ledger l;
    for (const MetricDef& m : kPerLayer) l[m.name] = 0.0;
    for (const CellOut& c : tp.cells) {
      for (const auto& [name, v] : c.layers) {
        l[name] = name == "sim.max_queue_depth" ? std::max(l[name], v)
                                                : l[name] + v;
      }
    }
    l["scenario.parse_s"] = parse_s;
    l["runner.build_s"] = build_s;
    l["runner.digest_s"] = tp.digest_s;
    l["dcqcn.cnp_sent_ratio"] =
        ratio(l["dcqcn.cnp_sent"],
              l["dcqcn.cnp_sent"] + l["dcqcn.cnp_suppressed"]);
    l["sketch.evict_ratio"] =
        ratio(l["sketch.evictions"], l["sketch.insertions"]);
    l["core.revert_ratio"] = ratio(l["core.reverts"], l["core.episodes"]);
    l["exec.util_pct"] = tp.pool_util_pct;
    l["exec.idle_s"] = tp.pool_idle_s;
    l["exec.longest_cell_s"] = tp.longest_cell_s;
    l["obs.trace_overhead_pct"] = 100.0 * (tp.run_s / median(plain) - 1.0);
    l["obs.perf_overhead_pct"] = median(perf_pct);
    for (const MetricDef& m : kPerLayer) out[m.name] = {l[m.name], m.unit, 1};
    out["obs.trace_overhead_pct"].n = plain.size();
    out["obs.perf_overhead_pct"].n = perf_pct.size();
  }

  Json cell_table() const {
    Json cells = Json::make_array();
    std::printf("%-5s %-20s %-6s %-64s %14s %18s\n", "unit", "seed", "cell",
                "coords", "value", "run_digest");
    for (std::size_t k = 0; k < units_.size(); ++k) {
      const UnitRuns& u = units_[k];
      if (u.passes.empty()) continue;
      const std::string seed =
          u.seed ? std::to_string(*u.seed) : std::string("committed");
      for (const CellOut& c : u.passes.front().cells) {
        std::printf("%-5zu %-20s %-6zu %-64s %14.4f %18s\n", k, seed.c_str(),
                    c.index, c.coords.c_str(), c.value, hex(c.digest).c_str());
        Json j = Json::make_object();
        j.set("unit", Json::make_int(static_cast<std::int64_t>(k)));
        j.set("seed", Json::make_string(seed));
        j.set("index", Json::make_int(static_cast<std::int64_t>(c.index)));
        j.set("coords", Json::make_string(c.coords));
        j.set("digest", Json::make_string(hex(c.digest)));
        j.set("value", Json::make_number(c.value));
        j.set("passes",
              Json::make_int(static_cast<std::int64_t>(u.passes.size())));
        cells.push_back(std::move(j));
      }
    }
    return cells;
  }

  void print_metrics(const std::map<std::string, Metric>& metrics) const {
    for (std::size_t k = 0; k < units_.size(); ++k) {
      if (units_[k].passes.empty()) continue;
      std::printf("# unit %zu run_s:", k);
      for (const double s : pass_seconds(units_[k])) std::printf(" %.3f", s);
      std::printf("\n");
    }
    std::printf("%-28s %18s %-6s %8s\n", "metric", "value", "unit", "n");
    for (const auto& [name, m] : metrics) {
      std::printf("%-28s %18.6g %-6s %8zu\n", name.c_str(), m.value,
                  m.unit.c_str(), m.n);
    }
    for (const auto& [name, m] : reported_) {
      std::printf("%-28s %18.6g %-6s %8zu  (reported, not gated)\n",
                  name.c_str(), m.value, m.unit.c_str(), m.n);
    }
  }

  const Options& o_;
  Runner runner_;
  Clock::time_point epoch_;
  std::vector<UnitRuns> units_;
  std::unique_ptr<SpanLog> spans_;
  std::vector<double> traced_slices_;
  std::map<std::string, Metric> reported_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  return Bench(o).run();
}
