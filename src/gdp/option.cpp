#include "gdp/option.hpp"

#include <algorithm>

#include "common/string_util.hpp"

namespace cops::gdp {

bool OptionSpec::value_is_legal(const std::string& value) const {
  switch (type) {
    case OptionType::kBool: {
      const auto lower = to_lower(value);
      return lower == "yes" || lower == "no" || lower == "true" ||
             lower == "false" || lower == "on" || lower == "off" ||
             lower == "1" || lower == "0";
    }
    case OptionType::kEnum: {
      const auto lower = to_lower(value);
      return std::find(legal_values.begin(), legal_values.end(), lower) !=
             legal_values.end();
    }
    case OptionType::kInt: {
      const long parsed = parse_non_negative(value);
      return parsed >= 0 && parsed >= min_value && parsed <= max_value;
    }
  }
  return false;
}

void OptionSet::set(std::string key, std::string value) {
  values_[std::move(key)] = to_lower(value);
}

std::optional<std::string> OptionSet::get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string OptionSet::get_or(const std::string& key,
                              std::string fallback) const {
  auto v = get(key);
  return v ? *v : std::move(fallback);
}

bool OptionSet::get_bool(const std::string& key) const {
  const auto v = get_or(key, "no");
  return v == "yes" || v == "true" || v == "on" || v == "1";
}

void OptionTable::add(OptionSpec spec) { specs_.push_back(std::move(spec)); }

void OptionTable::add_constraint(std::string description, Constraint check) {
  constraints_.emplace_back(std::move(description), std::move(check));
}

const OptionSpec* OptionTable::find(const std::string& key) const {
  for (const auto& spec : specs_) {
    if (spec.key == key) return &spec;
  }
  return nullptr;
}

OptionSet OptionTable::with_defaults(OptionSet partial) const {
  for (const auto& spec : specs_) {
    if (!partial.get(spec.key)) partial.set(spec.key, spec.default_value);
  }
  return partial;
}

std::vector<std::string> OptionTable::validate(const OptionSet& set) const {
  std::vector<std::string> problems;
  for (const auto& [key, value] : set.values()) {
    const auto* spec = find(key);
    if (spec == nullptr) {
      problems.push_back("unknown option '" + key + "'");
      continue;
    }
    if (!spec->value_is_legal(value)) {
      problems.push_back("option '" + key + "' has illegal value '" + value +
                         "'");
    }
  }
  for (const auto& spec : specs_) {
    if (!set.get(spec.key)) {
      problems.push_back("option '" + spec.key + "' is unset");
    }
  }
  if (!problems.empty()) return problems;
  for (const auto& [description, check] : constraints_) {
    const auto violation = check(set);
    if (!violation.empty()) {
      problems.push_back(description + ": " + violation);
    }
  }
  return problems;
}

}  // namespace cops::gdp
