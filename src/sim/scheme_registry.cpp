#include "sim/scheme_registry.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

namespace sealdl::sim {
namespace {

// Paper schemes first (the order the fig benches sweep), rivals after.
// Seculator is counter mode with a compact counter layout; GuardNN is direct
// mode over the weights only (PAPERS.md).
constexpr int kNumSchemes = 7;
constexpr std::array<SchemeInfo, kNumSchemes> g_registry{{
    {"baseline", "Baseline", EncryptionScheme::kNone, ProtectionScope::kNone,
     /*compact_counters=*/false, /*paper=*/true},
    {"direct", "Direct", EncryptionScheme::kDirect, ProtectionScope::kAll,
     /*compact_counters=*/false, /*paper=*/true},
    {"counter", "Counter", EncryptionScheme::kCounter, ProtectionScope::kAll,
     /*compact_counters=*/false, /*paper=*/true},
    {"seal-d", "SEAL-D", EncryptionScheme::kDirect, ProtectionScope::kPlanRows,
     /*compact_counters=*/false, /*paper=*/true},
    {"seal-c", "SEAL-C", EncryptionScheme::kCounter, ProtectionScope::kPlanRows,
     /*compact_counters=*/false, /*paper=*/true},
    {"seculator", "Seculator", EncryptionScheme::kCounter, ProtectionScope::kAll,
     /*compact_counters=*/true, /*paper=*/false},
    {"guardnn", "GuardNN", EncryptionScheme::kDirect, ProtectionScope::kWeights,
     /*compact_counters=*/false, /*paper=*/false},
}};

}  // namespace

const char* protection_scope_name(ProtectionScope scope) {
  switch (scope) {
    case ProtectionScope::kNone:
      return "none";
    case ProtectionScope::kAll:
      return "all";
    case ProtectionScope::kPlanRows:
      return "plan-rows";
    case ProtectionScope::kWeights:
      return "weights";
  }
  return "?";
}

std::span<const SchemeInfo> scheme_registry() { return g_registry; }

const SchemeInfo* find_scheme(std::string_view name) {
  const auto it = std::find_if(
      g_registry.begin(), g_registry.end(), [&](const SchemeInfo& info) {
        return name == info.cli_name || name == info.display;
      });
  return it == g_registry.end() ? nullptr : &*it;
}

const SchemeInfo& resolve_scheme(std::string_view name) {
  if (const SchemeInfo* entry = find_scheme(name)) return *entry;
  std::string names;
  for (const SchemeInfo& info : g_registry) {
    if (!names.empty()) names += '|';
    names += info.cli_name;
  }
  throw std::invalid_argument("unknown --scheme " + std::string(name) + " (" +
                              names + ")");
}

const SchemeInfo* baseline_scheme() { return &g_registry[0]; }

LineProtection::LineProtection(const SchemeInfo& scheme, const SecureMap* map)
    : encrypts_(scheme.family != EncryptionScheme::kNone),
      map_(scheme.scope == ProtectionScope::kAll ? nullptr : map) {}

}  // namespace sealdl::sim
