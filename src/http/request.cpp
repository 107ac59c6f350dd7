#include "http/request.hpp"

#include "common/string_util.hpp"
#include "http/head_grammar.hpp"

namespace cops::http {

namespace {

char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

void HeaderMap::add(std::string_view name, std::string_view value) {
  Entry entry;
  entry.name_off = static_cast<uint32_t>(storage_.size());
  entry.name_len = static_cast<uint32_t>(name.size());
  for (char c : name) storage_.push_back(ascii_lower(c));
  entry.value_off = static_cast<uint32_t>(storage_.size());
  entry.value_len = static_cast<uint32_t>(value.size());
  storage_.append(value);
  entries_.push_back(entry);
}

void HeaderMap::append_to_value(size_t i, std::string_view more) {
  Entry& entry = entries_[i];
  // The combined value must be contiguous; rebuild it at the arena's tail
  // (the old bytes become dead until the next reset()).
  const uint32_t off = static_cast<uint32_t>(storage_.size());
  storage_.append(storage_, entry.value_off, entry.value_len);
  storage_.append(", ");
  storage_.append(more);
  entry.value_off = off;
  entry.value_len = static_cast<uint32_t>(storage_.size()) - off;
}

size_t HeaderMap::find_index(std::string_view name) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    const auto& entry = entries_[i];
    if (entry.name_len != name.size()) continue;
    if (cops::iequals({storage_.data() + entry.name_off, entry.name_len},
                      name)) {
      return i;
    }
  }
  return npos;
}

std::optional<std::string_view> HeaderMap::get(std::string_view name) const {
  const size_t i = find_index(name);
  if (i == npos) return std::nullopt;
  return at(i).value;
}

HeaderMap::Header HeaderMap::at(size_t i) const {
  const auto& entry = entries_[i];
  return {{storage_.data() + entry.name_off, entry.name_len},
          {storage_.data() + entry.value_off, entry.value_len}};
}

bool HeaderMap::operator==(const HeaderMap& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Header a = at(i);
    const Header b = other.at(i);
    if (a.name != b.name || a.value != b.value) return false;
  }
  return true;
}

void HttpRequest::reset() {
  method = Method::kGet;
  target.clear();
  path.clear();
  query.clear();
  version_major = 1;
  version_minor = 1;
  headers.reset();
  body.clear();
}

bool HttpRequest::keep_alive() const {
  ConnectionTokens tokens;
  if (auto connection = headers.get("connection")) tokens.note(*connection);
  return persistent(version_major == 1 && version_minor >= 1, tokens);
}

}  // namespace cops::http
