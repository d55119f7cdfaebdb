// Minimal command-line flag parsing for benches and examples.
//
// Supports `--name value`, `--name=value` and boolean `--name` forms; unknown
// flags are an error so typos in experiment scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sealdl::util {

class CliFlags {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input.
  CliFlags(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// The numeric getters throw std::invalid_argument naming the flag when
  /// the value does not parse in full ("--jobs x", "--tiles 40abc").
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// Like get_int() for counts and sizes: a negative value is rejected
  /// ("--tiles -1") instead of wrapping to 2^64.
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Names of all flags that were supplied but never queried — call at the end
  /// of main() to reject typos. Returns empty vector if everything was used.
  [[nodiscard]] std::vector<std::string> unused() const;

  /// Names of every flag queried so far, supplied or not, in sorted order.
  [[nodiscard]] std::vector<std::string> queried() const;

  /// Throws std::invalid_argument naming every unused() flag and listing the
  /// queried() ones, so a typo such as `--tile 40` or a `--help` fails
  /// instead of running with defaults. Call it once every flag has been
  /// read; the tools turn the throw into exit code 2.
  void reject_unknown() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

/// Splits a comma-separated flag value into its non-empty items.
std::vector<std::string> split_csv(const std::string& csv);

}  // namespace sealdl::util
