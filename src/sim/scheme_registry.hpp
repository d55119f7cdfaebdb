// The single source of truth for every secure-memory scheme the toolchain
// knows: CLI spelling, display name, EncryptionScheme family, protection
// scope, and the SchemeModel singleton that times it.
//
// An entry is the whole scheme identity: `GpuConfig::scheme` points at one,
// and the controllers, the network runner, the functional memory and the
// report all read family, scope and model from it. `sealdl-sim`,
// `sealdl-serve`, `sealdl-check`, and the benches resolve schemes by name
// through this table, so adding a scheme is one row here (plus its model) and
// cannot desync `--scheme` parsing, report provenance, and the conformance
// analyzer — scheme.registry plus the rule-catalog drift gates fail the build
// on a missing or inconsistent entry.
#pragma once

#include <span>
#include <string_view>

#include "sim/gpu_config.hpp"
#include "sim/scheme_model.hpp"
#include "sim/secure_map.hpp"

namespace sealdl::sim {

/// One registered scheme. `cli_name` is the canonical `--scheme` spelling;
/// `display` is the human/provenance name (reports, bench tables).
struct SchemeInfo {
  const char* cli_name;
  const char* display;
  EncryptionScheme family;  ///< cipher family (line transform)
  ProtectionScope scope;    ///< what the scheme protects
  const SchemeModel* model; ///< registry-owned singleton, never null
  bool paper;               ///< one of the paper's five schemes (fig benches)

  /// Whether the scheme needs a SecureMap (any scope narrower than "all").
  [[nodiscard]] bool selective() const {
    return scope == ProtectionScope::kPlanRows ||
           scope == ProtectionScope::kWeights;
  }
};

/// All registered schemes, in canonical (paper-first) order.
[[nodiscard]] std::span<const SchemeInfo> scheme_registry();

/// Looks up a scheme by CLI or display name (exact match, both spellings);
/// returns nullptr when unknown.
[[nodiscard]] const SchemeInfo* find_scheme(std::string_view name);

/// Looks up a scheme by name like find_scheme(), but throws
/// std::invalid_argument naming every registered CLI name when it is unknown
/// (the CLIs' `--scheme` parser).
[[nodiscard]] const SchemeInfo& resolve_scheme(std::string_view name);

/// Which lines a scheme encrypts over a secure map: the one per-line rule
/// the timing controller and the functional memory share. Resolved once from
/// the entry: a family of kNone protects nothing, scope kAll protects every
/// line, and any narrower scope protects the lines `map` marks (a null map
/// marks every line). The per-line query is then a flag test plus, for
/// selective scopes only, the map lookup.
class LineProtection {
 public:
  LineProtection(const SchemeInfo& scheme, const SecureMap* map);

  /// Whether the scheme encrypts anything at all (false only for Baseline).
  [[nodiscard]] bool encrypts_any() const { return encrypts_; }

  [[nodiscard]] bool line_is_secure(Addr line_addr, int line_bytes) const {
    return encrypts_ &&
           (map_ == nullptr || map_->line_is_secure(line_addr, line_bytes));
  }

 private:
  bool encrypts_;
  const SecureMap* map_;  ///< null => every line
};

}  // namespace sealdl::sim
