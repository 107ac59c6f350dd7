#include "common/config_file.hpp"

#include <fstream>
#include <sstream>

#include "common/string_util.hpp"

namespace cops {

Result<ConfigFile> ConfigFile::parse(std::string_view text) {
  ConfigFile cfg;
  int line_no = 0;
  for (const auto& raw_line : split(text, '\n')) {
    ++line_no;
    auto line = trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::invalid_argument("line " + std::to_string(line_no) +
                                      ": expected key = value");
    }
    auto key = trim(line.substr(0, eq));
    auto value = trim(line.substr(eq + 1));
    if (key.empty()) {
      return Status::invalid_argument("line " + std::to_string(line_no) +
                                      ": empty key");
    }
    cfg.entries_[std::string(key)] = std::string(value);
  }
  return cfg;
}

Result<ConfigFile> ConfigFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::not_found("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

}  // namespace cops
