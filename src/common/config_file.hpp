// key = value configuration parser.
//
// copsgen reads pattern option settings from files in this format (the
// CO₂P₃S GUI's option panel is replaced by a declarative file):
//
//   # COPS-HTTP options
//   dispatcher_threads = 1
//   file_cache = lru
//
// Lines starting with '#' are comments; whitespace around keys/values is
// ignored; later assignments override earlier ones.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace cops {

class ConfigFile {
 public:
  static Result<ConfigFile> parse(std::string_view text);
  static Result<ConfigFile> load(const std::string& path);

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace cops
