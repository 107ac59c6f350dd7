// Option model for generative design pattern templates.
//
// A CO₂P₃S pattern template is "a set of options for adapting the generated
// code to the specific application context" (paper, Section I).  An
// OptionTable declares the options (name, legal values, default — Table 1's
// first two columns) plus cross-option constraints; an OptionSet holds one
// concrete assignment (Table 1's application columns).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace cops::gdp {

enum class OptionType { kBool, kEnum, kInt };

struct OptionSpec {
  std::string key;    // machine name, e.g. "file_cache"
  std::string label;  // display name, e.g. "O6: File cache"
  OptionType type = OptionType::kBool;
  std::vector<std::string> legal_values;  // enum values (lower-case)
  std::string default_value;
  long min_value = 0;  // for kInt
  long max_value = 0;

  [[nodiscard]] bool value_is_legal(const std::string& value) const;
};

class OptionSet {
 public:
  void set(std::string key, std::string value);
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key,
                                   std::string fallback) const;
  // True for "yes"/"true"/"on"/"1" (case-insensitive).
  [[nodiscard]] bool get_bool(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, std::string>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

class OptionTable {
 public:
  using Constraint =
      std::function<std::string(const OptionSet&)>;  // "" = satisfied

  void add(OptionSpec spec);
  void add_constraint(std::string description, Constraint check);

  [[nodiscard]] const OptionSpec* find(const std::string& key) const;
  [[nodiscard]] const std::vector<OptionSpec>& specs() const { return specs_; }

  // Fills in defaults for unset options.
  [[nodiscard]] OptionSet with_defaults(OptionSet partial) const;

  // Checks every value against its spec and every constraint; collects all
  // violations.
  [[nodiscard]] std::vector<std::string> validate(const OptionSet& set) const;

 private:
  std::vector<OptionSpec> specs_;
  std::vector<std::pair<std::string, Constraint>> constraints_;
};

}  // namespace cops::gdp
