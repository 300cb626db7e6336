#include "stats/csv_export.hpp"

#include <sstream>

#include "common/artifact.hpp"

namespace paraleon::stats {

bool write_timeseries_csv(const std::string& path,
                          const TimeSeries& series) {
  std::ostringstream out;
  out << "t_ms,value\n";
  for (const auto& p : series.points()) {
    out << to_ms(p.t) << ',' << p.value << '\n';
  }
  return write_artifact(path, out.str());
}

bool write_flows_csv(const std::string& path,
                     const std::vector<FlowRecord>& flows) {
  std::ostringstream out;
  out << "flow_id,src,dst,size_bytes,start_ms,fct_ms\n";
  for (const auto& f : flows) {
    if (f.finish < 0) continue;
    out << f.flow_id << ',' << f.src << ',' << f.dst << ',' << f.size_bytes
        << ',' << to_ms(f.start) << ',' << to_ms(f.finish - f.start) << '\n';
  }
  return write_artifact(path, out.str());
}

}  // namespace paraleon::stats
