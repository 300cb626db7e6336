// The one artifact writer: every JSON/CSV/trace file the library and the
// benches emit goes through write_artifact, so a missing directory is
// created and a failed write is reported instead of silently dropped.
#pragma once

#include <string>

namespace paraleon {

/// Writes `text` to `path` (binary, truncating), creating the parent
/// directories first. Returns true only when the directories exist, the
/// file opened and every byte was flushed to it.
bool write_artifact(const std::string& path, const std::string& text);

}  // namespace paraleon
