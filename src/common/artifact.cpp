#include "common/artifact.hpp"

#include <filesystem>
#include <fstream>
#include <system_error>

namespace paraleon {

bool write_artifact(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) return false;
  }
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  out.close();
  return static_cast<bool>(out);
}

}  // namespace paraleon
