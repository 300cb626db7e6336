// The benchmark's own spans: one record per call the harness makes into a
// layer (parse, build, run, digest, one per grid cell), plus the loop
// profiler's per-tag totals attached as synthetic children of the span
// that ran them. Kept in memory and written once when the run ends; a
// span's self time is its duration minus the part its children cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "scenario/json.hpp"

namespace paraleon::bench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span now and returns its id. `parent` < 0 marks a root.
  /// Thread-safe: grid cells open and close spans on pool workers.
  int open(const std::string& name, int parent, int cell = -1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, cell, now_s(), -1.0, false});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<std::size_t>(id)).end_s = now_s();
  }

  /// A child with a known duration but no observed start (a profiler
  /// total): placed at its parent's start.
  void add_total(const std::string& name, int parent, double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    const double start = spans_.at(static_cast<std::size_t>(parent)).start_s;
    const int cell = spans_.at(static_cast<std::size_t>(parent)).cell;
    spans_.push_back({name, parent, cell, start, start + seconds, true});
  }

  /// Every span with its duration and self time: the duration minus the
  /// part its children cover, i.e. the union of the real children's
  /// intervals (grid cells overlap on the pool) plus the synthetic
  /// children's totals (disjoint callback time by construction).
  scenario::Json to_json() const {
    using scenario::Json;
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
      }
    }
    Json out = Json::make_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = s.end_s - s.start_s;
      Json j = Json::make_object();
      j.set("id", Json::make_int(static_cast<std::int64_t>(i)));
      j.set("parent", Json::make_int(s.parent));
      j.set("name", Json::make_string(s.name));
      if (s.cell >= 0) j.set("cell", Json::make_int(s.cell));
      j.set("start_s", Json::make_number(s.start_s));
      j.set("dur_s", Json::make_number(dur));
      j.set("self_s", Json::make_number(dur - covered(children[i])));
      if (s.synthetic) j.set("synthetic", Json::make_bool(true));
      out.push_back(std::move(j));
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    int cell = -1;
    double start_s = 0.0;
    double end_s = -1.0;
    bool synthetic = false;
  };

  /// Seconds of the parent covered by these children (caller holds mu_).
  double covered(const std::vector<std::size_t>& kids) const {
    double synthetic = 0.0;
    std::vector<std::pair<double, double>> real;
    for (const std::size_t k : kids) {
      const Span& c = spans_[k];
      if (c.synthetic) {
        synthetic += c.end_s - c.start_s;
      } else {
        real.emplace_back(c.start_s, c.end_s);
      }
    }
    std::sort(real.begin(), real.end());
    double total = synthetic;
    double reach = -1.0;
    for (const auto& [start, end] : real) {
      const double from = std::max(start, reach);
      if (end > from) total += end - from;
      reach = std::max(reach, end);
    }
    return total;
  }

  double now_s() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace paraleon::bench
