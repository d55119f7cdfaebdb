// The single source of truth for every secure-memory scheme the toolchain
// knows: CLI spelling, display name, cipher family and protection scope.
//
// A scheme is a point on two axes: the cipher family (none, direct, counter)
// and what it protects (nothing, everything, the SE plan's rows, the
// weights). Everything else — the controller's read/write timing, whether a
// counter cache exists, which wire image the analyzer demands, whether AES
// occupancy is paid — is derived from that pair, so an entry cannot declare
// two things that disagree. `GpuConfig::scheme` points at one entry, and the
// controllers, the network runner, the functional memory and the report all
// read it. `sealdl-sim`, `sealdl-serve`, `sealdl-check`, and the benches
// resolve schemes by name through this table, so adding a scheme is one row
// here; scheme.registry plus the rule-catalog drift gates fail the build on
// a duplicate or inconsistent entry.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "sim/gpu_config.hpp"
#include "sim/secure_map.hpp"

namespace sealdl::sim {

/// Which addresses a scheme protects (drives secure-map construction, the
/// analyzer's wire policy and the scheme.boundary clause).
enum class ProtectionScope : std::uint8_t {
  kNone,      ///< nothing protected (Baseline)
  kAll,       ///< every data address (full-encryption schemes)
  kPlanRows,  ///< the encryption plan's protected rows/channels (SEAL)
  kWeights,   ///< every weight byte, no activations (GuardNN-style)
};

[[nodiscard]] const char* protection_scope_name(ProtectionScope scope);

/// One registered scheme. `cli_name` is the canonical `--scheme` spelling;
/// `display` is the human/provenance name (reports, bench tables).
struct SchemeInfo {
  const char* cli_name;
  const char* display;
  EncryptionScheme family;  ///< cipher family: line transform and timing
  ProtectionScope scope;    ///< what the scheme protects
  /// Counters packed one byte per data line whatever the configured width
  /// (Seculator's compact layout); only meaningful for the counter family.
  bool compact_counters;
  bool paper;  ///< one of the paper's five schemes (fig benches)

  /// Whether the scheme needs a SecureMap (any scope narrower than "all").
  [[nodiscard]] bool selective() const {
    return scope == ProtectionScope::kPlanRows ||
           scope == ProtectionScope::kWeights;
  }

  /// Bytes of counter storage per data line (the counter-region address
  /// layout): 0 without counters, 1 for a compact layout, else the
  /// configured organization.
  [[nodiscard]] int counter_bytes_per_line(const GpuConfig& config) const {
    if (family != EncryptionScheme::kCounter) return 0;
    return compact_counters ? 1 : config.effective_counter_bytes();
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
