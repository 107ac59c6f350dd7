#include "ftp/command.hpp"

#include "common/string_util.hpp"

namespace cops::ftp {

bool parse_command_into(std::string_view line, FtpCommand& out) {
  line = cops::trim(line);
  if (line.empty() || line.size() > 512) return false;
  const size_t space = line.find(' ');
  // assign() + in-place upper-casing: verb/arg keep their capacity across
  // commands, so a recycled FtpCommand decodes without allocating.
  if (space == std::string_view::npos) {
    out.verb.assign(line);
    out.arg.clear();
  } else {
    out.verb.assign(line.substr(0, space));
    const std::string_view arg = cops::trim(line.substr(space + 1));
    out.arg.assign(arg);
  }
  for (char& c : out.verb) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  if (out.verb.empty() || out.verb.size() > 4) return false;
  for (char c : out.verb) {
    if (c < 'A' || c > 'Z') return false;
  }
  return true;
}

std::optional<std::pair<std::string, uint16_t>> parse_port_arg(
    std::string_view arg) {
  const auto parts = cops::split_trimmed(arg, ',');
  if (parts.size() != 6) return std::nullopt;
  long nums[6];
  for (size_t i = 0; i < 6; ++i) {
    nums[i] = cops::parse_non_negative(parts[i]);
    if (nums[i] < 0 || nums[i] > 255) return std::nullopt;
  }
  const std::string host = parts[0] + "." + parts[1] + "." + parts[2] + "." +
                           parts[3];
  const auto port = static_cast<uint16_t>(nums[4] * 256 + nums[5]);
  if (port == 0) return std::nullopt;
  return std::make_pair(host, port);
}

std::string format_pasv(const std::string& host, uint16_t port) {
  std::string dotted = cops::replace_all(host, ".", ",");
  return "(" + dotted + "," + std::to_string(port / 256) + "," +
         std::to_string(port % 256) + ")";
}

}  // namespace cops::ftp
