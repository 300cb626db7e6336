// CSV export of experiment results (time series and per-flow records) for
// offline plotting of the paper's figures.
#pragma once

#include <string>
#include <vector>

#include "stats/fct_tracker.hpp"
#include "stats/timeseries.hpp"

namespace paraleon::stats {

/// Writes `t_ms,value` rows through write_artifact (parent directories
/// are created). Returns false on I/O failure.
bool write_timeseries_csv(const std::string& path, const TimeSeries& series);

/// Writes `flow_id,src,dst,size_bytes,start_ms,fct_ms` rows for completed
/// flows. Returns false on I/O failure.
bool write_flows_csv(const std::string& path,
                     const std::vector<FlowRecord>& flows);

}  // namespace paraleon::stats
