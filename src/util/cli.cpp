#include "util/cli.hpp"

#include <sstream>
#include <stdexcept>

namespace sealdl::util {
namespace {

/// Parses all of `text` with `parse` (std::stoll/std::stod style), or throws
/// std::invalid_argument naming the flag and the expected kind.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& text,
                 const char* kind, Parse parse) {
  std::size_t used = 0;
  try {
    const auto value = parse(text, &used);
    if (used == text.size()) return value;
  } catch (const std::logic_error&) {
    // invalid_argument or out_of_range: reported below with the flag name.
  }
  throw std::invalid_argument("--" + name + ": expected " + kind + ", got '" +
                              text + "'");
}

}  // namespace

CliFlags::CliFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) throw std::invalid_argument("bare '--' is not a flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` if the next token is not itself a flag; else boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) > 0;
}

std::string CliFlags::get(const std::string& name,
                          const std::string& fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliFlags::get_int(const std::string& name,
                               std::int64_t fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_whole(name, it->second, "an integer",
                     [](const std::string& t, std::size_t* n) { return std::stoll(t, n); });
}

std::uint64_t CliFlags::get_uint(const std::string& name,
                                std::uint64_t fallback) const {
  if (!has(name)) return fallback;
  const std::int64_t value = get_int(name, 0);
  if (value < 0) {
    throw std::invalid_argument("--" + name + ": expected a non-negative integer, got '" +
                                flags_.at(name) + "'");
  }
  return static_cast<std::uint64_t>(value);
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_whole(name, it->second, "a number",
                     [](const std::string& t, std::size_t* n) { return std::stod(t, n); });
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> CliFlags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : flags_) {
    if (!queried_.count(name)) out.push_back(name);
  }
  return out;
}

std::vector<std::string> CliFlags::queried() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : queried_) out.push_back(name);
  return out;
}

void CliFlags::reject_unknown() const {
  const std::vector<std::string> unknown = unused();
  if (unknown.empty()) return;
  std::string message = "unknown flag";
  for (const std::string& name : unknown) message += " --" + name;
  message += " (accepted:";
  for (const std::string& name : queried()) message += " --" + name;
  throw std::invalid_argument(message + ")");
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> items;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

}  // namespace sealdl::util
