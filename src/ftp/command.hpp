// FTP command parsing (the COPS-FTP Decode step output).
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace cops::ftp {

struct FtpCommand {
  std::string verb;  // upper-cased, e.g. "RETR"
  std::string arg;   // raw argument (may be empty)
};

// Parses one "VERB [arg]\r\n" line (without the terminator) into `out`,
// reusing its string capacity, so a recycled command decodes without
// allocating.  Returns false on a syntax error, in which case `out` is
// unspecified.
bool parse_command_into(std::string_view line, FtpCommand& out);

// Parses the PORT h1,h2,h3,h4,p1,p2 argument; returns {host, port}.
[[nodiscard]] std::optional<std::pair<std::string, uint16_t>> parse_port_arg(
    std::string_view arg);

// Formats a PASV 227 reply body "(h1,h2,h3,h4,p1,p2)".
[[nodiscard]] std::string format_pasv(const std::string& host, uint16_t port);

}  // namespace cops::ftp
