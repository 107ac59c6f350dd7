// Small string helpers used by the protocol parsers and the generator.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cops {

[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] std::string to_upper(std::string_view s);
[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);
// Splits on `sep`, trimming each piece and dropping empties.
[[nodiscard]] std::vector<std::string> split_trimmed(std::string_view s, char sep);
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);
// ASCII case-insensitive equality: what std::tolower gives in the C locale
// the programs run in, without its per-byte library call.  Inline, because
// header names and tokens are compared on every request and most
// comparisons end at the size check.
[[nodiscard]] inline bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  const auto fold = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  for (size_t i = 0; i < a.size(); ++i) {
    if (fold(a[i]) != fold(b[i])) return false;
  }
  return true;
}
// Replaces every occurrence of `from` with `to`.
[[nodiscard]] std::string replace_all(std::string s, std::string_view from,
                                      std::string_view to);
// Parses a non-negative integer; returns -1 on malformed input.
[[nodiscard]] long parse_non_negative(std::string_view s);

}  // namespace cops
