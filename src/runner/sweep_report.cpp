#include "runner/sweep_report.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/counters.hpp"
#include "runner/experiment.hpp"
#include "stats/percentile.hpp"

namespace paraleon::runner {

namespace {

/// JSON string escape for failure messages (exception text is arbitrary).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Nanoseconds as a microsecond decimal with 3 fixed fraction digits (the
/// Chrome `ts` unit; same fixed-width formatting as obs/trace.cpp).
void append_us(std::string& out, std::int64_t ns) {
  if (ns < 0) ns = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

std::string digest_hex(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::string histogram_json(const std::vector<std::uint64_t>& buckets) {
  int last = -1;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] != 0) last = static_cast<int>(i);
  }
  std::string out = "[";
  for (int i = 0; i <= last; ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(buckets[i]);
  }
  return out + "]";
}

std::string aggregate_json(const FleetAggregate& a) {
  std::string out = "{\"min\": " + obs::format_value(a.min);
  out += ", \"mean\": " + obs::format_value(a.mean);
  out += ", \"p95\": " + obs::format_value(a.p95);
  out += ", \"max\": " + obs::format_value(a.max);
  out += ", \"n\": " + std::to_string(a.n) + "}";
  return out;
}

}  // namespace

RunScrape scrape_run(const Experiment& exp) {
  RunScrape scrape;
  for (const auto& sample : exp.simulator().obs().registry().snapshot()) {
    scrape.instruments[sample.name] = sample.value;
  }
  scrape.events_executed = exp.simulator().events_executed();
  scrape.slowdown =
      exp.fct().slowdown_stats(0, std::numeric_limits<std::int64_t>::max());
  scrape.flows_finished = static_cast<std::uint64_t>(exp.fct().finished());
  scrape.flows_started = static_cast<std::uint64_t>(exp.fct().started());
  return scrape;
}

std::vector<Straggler> find_stragglers(
    const std::vector<obs::JobSpan>& spans, double z_threshold) {
  std::vector<double> secs;
  secs.reserve(spans.size());
  for (const auto& s : spans) {
    if (s.start_ns >= 0 && s.end_ns >= s.start_ns) {
      secs.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
    }
  }
  std::vector<Straggler> out;
  if (secs.size() < 2) return out;
  const double mean = stats::mean(secs);
  double var = 0.0;
  for (const double v : secs) var += (v - mean) * (v - mean);
  const double sd = std::sqrt(var / static_cast<double>(secs.size()));
  if (sd <= 0.0) return out;
  for (const auto& s : spans) {
    if (s.start_ns < 0 || s.end_ns < s.start_ns) continue;
    const double v = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    const double z = (v - mean) / sd;
    if (z > z_threshold) out.push_back(Straggler{s.job, z, v});
  }
  return out;
}

void FleetReport::set_sweep_shape(std::size_t seeds, int jobs,
                                  int hardware_workers) {
  sweep_seeds_ = seeds;
  sweep_jobs_ = jobs;
  hardware_workers_ = hardware_workers;
}

void FleetReport::add_run(std::uint64_t seed, std::uint64_t digest,
                          double value, RunScrape scrape) {
  runs_.push_back(RunRow{seed, digest, value, std::move(scrape)});
}

std::map<std::string, FleetAggregate> FleetReport::aggregates() const {
  std::map<std::string, std::vector<double>> samples;
  for (const auto& run : runs_) {
    for (const auto& [name, value] : run.scrape.instruments) {
      samples[name].push_back(value);
    }
    samples["metric_value"].push_back(run.value);
    samples["events_executed"].push_back(
        static_cast<double>(run.scrape.events_executed));
    samples["fct.finished"].push_back(
        static_cast<double>(run.scrape.flows_finished));
    samples["fct.slowdown_mean"].push_back(run.scrape.slowdown.mean);
    samples["fct.slowdown_p95"].push_back(run.scrape.slowdown.p95);
    samples["fct.slowdown_p999"].push_back(run.scrape.slowdown.p999);
  }
  std::map<std::string, FleetAggregate> out;
  for (const auto& [name, values] : samples) {
    FleetAggregate agg;
    agg.n = values.size();
    agg.min = values.front();
    agg.max = values.front();
    for (const double v : values) {
      if (v < agg.min) agg.min = v;
      if (v > agg.max) agg.max = v;
    }
    agg.mean = stats::mean(values);
    agg.p95 = stats::quantile(values, 0.95);
    out[name] = agg;
  }
  return out;
}

std::vector<Straggler> FleetReport::stragglers(double z_threshold) const {
  if (pool_ == nullptr) return {};
  return find_stragglers(pool_->spans(), z_threshold);
}

std::string FleetReport::to_json(bool include_wall) const {
  std::string out = "{\"schema\": \"paraleon.fleet.v1\", \"fleet\": \"";
  out += json_escape(name_) + "\"";

  out += ", \"sweep\": {\"seeds\": " + std::to_string(sweep_seeds_);
  out += ", \"jobs\": " + std::to_string(sweep_jobs_);
  out += ", \"hardware_workers\": " + std::to_string(hardware_workers_);
  out += "}";

  out += ", \"runs\": [";
  bool first = true;
  for (const auto& run : runs_) {
    if (!first) out += ", ";
    first = false;
    out += "{\"seed\": " + std::to_string(run.seed);
    out += ", \"digest\": \"" + digest_hex(run.digest) + "\"";
    out += ", \"value\": " + obs::format_value(run.value);
    out += ", \"events\": " + std::to_string(run.scrape.events_executed);
    const auto& sd = run.scrape.slowdown;
    out += ", \"fct\": {\"count\": " + std::to_string(sd.count);
    out += ", \"mean\": " + obs::format_value(sd.mean);
    out += ", \"p50\": " + obs::format_value(sd.p50);
    out += ", \"p95\": " + obs::format_value(sd.p95);
    out += ", \"p99\": " + obs::format_value(sd.p99);
    out += ", \"p999\": " + obs::format_value(sd.p999) + "}";
    out += ", \"finished\": " + std::to_string(run.scrape.flows_finished);
    out += ", \"started\": " + std::to_string(run.scrape.flows_started);
    out += "}";
  }
  out += "]";

  // Failure records are deterministic given the seed list (which jobs
  // throw is a pure function of the runs), so they stay outside "wall".
  const std::uint64_t failure_count =
      pool_ == nullptr ? 0 : pool_->failure_count();
  out += ", \"failures\": {\"count\": " + std::to_string(failure_count);
  out += ", \"messages\": [";
  if (pool_ != nullptr) {
    first = true;
    for (const auto& f : pool_->failures()) {
      if (!first) out += ", ";
      first = false;
      out += "{\"job\": " + std::to_string(f.job);
      out += ", \"message\": \"" + json_escape(f.message) + "\"}";
    }
  }
  out += "]}";

  out += ", \"speculation\": {\"proposed\": " + std::to_string(spec_.proposed);
  out += ", \"evaluated\": " + std::to_string(spec_.evaluated);
  out += ", \"accepted\": " + std::to_string(spec_.accepted);
  out += ", \"wasted\": " + std::to_string(spec_.wasted);
  out += ", \"events_total\": " + std::to_string(spec_.events_total);
  out += ", \"events_wasted\": " + std::to_string(spec_.events_wasted);
  out += "}";

  out += ", \"aggregates\": {";
  first = true;
  for (const auto& [name, agg] : aggregates()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(name) + "\": " + aggregate_json(agg);
  }
  out += "}";

  if (include_wall && pool_ != nullptr) {
    // Everything below is OS-scheduling noise: worker assignment, wait
    // latency, spans, stragglers. Never digested, never byte-compared.
    const auto workers = pool_->worker_stats();
    std::int64_t busy_ns = 0;
    std::int64_t idle_ns = 0;
    for (const auto& w : workers) {
      busy_ns += w.busy_ns;
      idle_ns += w.idle_ns;
    }
    out += ", \"wall\": {\"pool\": {\"workers\": ";
    out += std::to_string(workers.size());
    out += ", \"wall_seconds\": " + obs::format_value(pool_->wall_seconds());
    out += ", \"busy_seconds\": " +
           obs::format_value(static_cast<double>(busy_ns) / 1e9);
    out += ", \"idle_seconds\": " +
           obs::format_value(static_cast<double>(idle_ns) / 1e9);
    out += ", \"jobs\": " + std::to_string(pool_->jobs_completed());
    out += "}";

    out += ", \"queue_wait_log2_us\": " +
           histogram_json(pool_->queue_wait_log2_us());

    out += ", \"workers\": [";
    first = true;
    for (const auto& w : workers) {
      if (!first) out += ", ";
      first = false;
      out += "{\"jobs\": " + std::to_string(w.jobs);
      out += ", \"busy_seconds\": " +
             obs::format_value(static_cast<double>(w.busy_ns) / 1e9);
      out += ", \"idle_seconds\": " +
             obs::format_value(static_cast<double>(w.idle_ns) / 1e9);
      out += "}";
    }
    out += "]";

    out += ", \"jobs\": [";
    first = true;
    for (const auto& s : pool_->spans()) {
      if (!first) out += ", ";
      first = false;
      out += "{\"job\": " + std::to_string(s.job);
      out += ", \"worker\": " + std::to_string(s.worker);
      out += ", \"submit_us\": ";
      append_us(out, s.submit_ns);
      out += ", \"start_us\": ";
      append_us(out, s.start_ns);
      out += ", \"end_us\": ";
      append_us(out, s.end_ns);
      out += "}";
    }
    out += "]";

    out += ", \"stragglers\": [";
    first = true;
    for (const auto& s : stragglers()) {
      if (!first) out += ", ";
      first = false;
      out += "{\"job\": " + std::to_string(s.job);
      out += ", \"z\": " + obs::format_value(s.z);
      out += ", \"seconds\": " + obs::format_value(s.seconds) + "}";
    }
    out += "]}";
  }

  out += "}";
  return out;
}

std::string FleetReport::timeline_json() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto emit = [&out, &first](const std::string& ev) {
    if (!first) out += ", ";
    first = false;
    out += ev;
  };

  // Track naming: pid 0 is the sweep, tid 0 the submitting thread, tid
  // w+1 worker w.
  emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0"
       ", \"args\": {\"name\": \"sweep:" +
       json_escape(name_) + "\"}}");
  emit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0"
       ", \"args\": {\"name\": \"submit\"}}");
  const int workers = pool_ == nullptr ? 0 : pool_->workers();
  for (int w = 0; w < workers; ++w) {
    emit("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": " +
         std::to_string(w + 1) + ", \"args\": {\"name\": \"worker " +
         std::to_string(w) + "\"}}");
  }

  const auto spans = pool_ == nullptr ? std::vector<obs::JobSpan>{}
                                      : pool_->spans();
  for (const auto& s : spans) {
    // When the pool ran exactly the sweep's runs, job i is seed i's
    // experiment; label the span by seed so the timeline reads directly.
    std::string label = "job " + std::to_string(s.job);
    if (spans.size() == runs_.size() && s.job < runs_.size()) {
      label = "seed " + std::to_string(runs_[s.job].seed);
    }
    const std::string id = std::to_string(s.job);
    if (s.submit_ns >= 0 && s.start_ns >= 0) {
      // Flow arrow: submission ('s' on the submit track) to execution
      // ('f' on the worker track, binding point "e" = enclosing slice).
      std::string ev = "{\"name\": \"dispatch\", \"cat\": \"fleet\""
                       ", \"ph\": \"s\", \"id\": " + id +
                       ", \"pid\": 0, \"tid\": 0, \"ts\": ";
      append_us(ev, s.submit_ns);
      ev += "}";
      emit(ev);
    }
    if (s.start_ns < 0 || s.end_ns < s.start_ns) continue;
    const std::int64_t tid = s.worker < 0 ? 0 : s.worker + 1;
    std::string ev = "{\"name\": \"" + label +
                     "\", \"cat\": \"fleet\", \"ph\": \"X\", \"ts\": ";
    append_us(ev, s.start_ns);
    ev += ", \"dur\": ";
    append_us(ev, s.end_ns - s.start_ns);
    ev += ", \"pid\": 0, \"tid\": " + std::to_string(tid);
    ev += ", \"args\": {\"job\": " + id + ", \"queue_wait_us\": ";
    append_us(ev, s.submit_ns >= 0 ? s.start_ns - s.submit_ns : 0);
    ev += "}}";
    emit(ev);
    if (s.submit_ns >= 0) {
      std::string fin = "{\"name\": \"dispatch\", \"cat\": \"fleet\""
                        ", \"ph\": \"f\", \"bp\": \"e\", \"id\": " + id +
                        ", \"pid\": 0, \"tid\": " + std::to_string(tid) +
                        ", \"ts\": ";
      append_us(fin, s.start_ns);
      fin += "}";
      emit(fin);
    }
  }

  out += "]}";
  return out;
}

}  // namespace paraleon::runner
