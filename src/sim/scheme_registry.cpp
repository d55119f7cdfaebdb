#include "sim/scheme_registry.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

namespace sealdl::sim {
namespace {

// ---------------------------------------------------------------------------
// Concrete scheme models. Each instance is a stateless const singleton owned
// by this translation unit; the registry hands out pointers that stay valid
// for the life of the process. Timing shapes must match the paper's dataflow
// exactly — the five paper entries are pinned byte-identical to the
// pre-refactor controller by the scheme-golden ctest gate.
// ---------------------------------------------------------------------------

/// Baseline: no encryption. The controller never routes traffic through a
/// secure path (needs_encryption is false for every address), so the secure
/// hooks fall back to plain DRAM service should anything ever call them.
class BaselineModel final : public SchemeModel {
 public:
  [[nodiscard]] const SchemeContract& contract() const override {
    static constexpr SchemeContract kContract{
        .scope = ProtectionScope::kNone,
        .wire = WireVisibility::kFullPlain,
        .metadata = MetadataModel::kNone,
        .read_shape = SerializationShape::kPassthrough,
        .pays_aes_occupancy = false,
    };
    return kContract;
  }
  Cycle read_secure(Host& host, Cycle now, Addr /*addr*/,
                    std::uint64_t bytes) const override {
    return host.dram_schedule(now, bytes);
  }
  Cycle write_secure(Host& host, Cycle now, Addr /*addr*/,
                     std::uint64_t bytes) const override {
    return host.dram_schedule(now, bytes);
  }
};

/// Direct (XEX-style): the cipher is serialized with the data. Reads decrypt
/// after DRAM returns the line; writes encrypt before the line can drain.
class DirectModel final : public SchemeModel {
 public:
  explicit DirectModel(const SchemeContract& contract) : contract_(contract) {}
  [[nodiscard]] const SchemeContract& contract() const override {
    return contract_;
  }
  Cycle read_secure(Host& host, Cycle now, Addr /*addr*/,
                    std::uint64_t bytes) const override {
    // Data must arrive before the (de)cipher can start.
    const Cycle data_done = host.dram_schedule(now, bytes);
    return host.aes_schedule(data_done, bytes);
  }
  Cycle write_secure(Host& host, Cycle now, Addr /*addr*/,
                     std::uint64_t bytes) const override {
    const Cycle cipher_done = host.aes_schedule(now, bytes);
    return host.dram_schedule(cipher_done, bytes);
  }

 private:
  SchemeContract contract_;
};

/// Counter mode: pad generation starts as soon as the counter is known and
/// overlaps the data fetch; the final XOR costs one cycle. Counter blocks are
/// fetched through the same channel via an on-chip counter cache.
class CounterModel : public SchemeModel {
 public:
  explicit CounterModel(const SchemeContract& contract) : contract_(contract) {}
  [[nodiscard]] const SchemeContract& contract() const override {
    return contract_;
  }
  Cycle read_secure(Host& host, Cycle now, Addr addr,
                    std::uint64_t bytes) const override {
    const Cycle data_done = host.dram_schedule(now, bytes);
    const Cycle counter_done = host.fetch_counter(now, addr, /*for_write=*/false);
    const Cycle pad_done = host.aes_schedule(counter_done, bytes);
    return std::max(data_done, pad_done) + 1;
  }
  Cycle write_secure(Host& host, Cycle now, Addr addr,
                     std::uint64_t bytes) const override {
    // Writes bump the per-line counter, so the counter fetch dirties its
    // counter-cache line; the encrypted payload drains after the pad XOR.
    const Cycle counter_done = host.fetch_counter(now, addr, /*for_write=*/true);
    const Cycle pad_done = host.aes_schedule(counter_done, bytes);
    return host.dram_schedule(pad_done + 1, bytes);
  }
  [[nodiscard]] bool uses_counter_cache() const override { return true; }
  [[nodiscard]] int counter_bytes_per_line(const GpuConfig& config) const override {
    return config.effective_counter_bytes();
  }

 private:
  SchemeContract contract_;
};

/// Seculator-style compact counter layout (PAPERS.md): the timing dataflow is
/// standard counter mode, but counters are packed one byte per data line
/// regardless of the configured counter width — 8x more counters per
/// counter-cache line than the default 64-bit organization, so the same 96 KB
/// cache covers 8x the footprint and metadata fills drop accordingly.
class SeculatorModel final : public CounterModel {
 public:
  using CounterModel::CounterModel;
  [[nodiscard]] int counter_bytes_per_line(const GpuConfig& /*config*/) const override {
    return 1;
  }
};

// GuardNN-style selective protection reuses DirectModel timing with a
// weights-only scope: the boundary is structural (model parameters), not
// plan-derived, so no separate model class is needed — the registry entry
// pairs Direct timing with ProtectionScope::kWeights.

constexpr SchemeContract kDirectFull{
    .scope = ProtectionScope::kAll,
    .wire = WireVisibility::kFullCipher,
    .metadata = MetadataModel::kNone,
    .read_shape = SerializationShape::kAesAfterData,
    .pays_aes_occupancy = true,
};
constexpr SchemeContract kCounterFull{
    .scope = ProtectionScope::kAll,
    .wire = WireVisibility::kFullCipher,
    .metadata = MetadataModel::kCounterLines,
    .read_shape = SerializationShape::kPadOverlapsData,
    .pays_aes_occupancy = true,
};
constexpr SchemeContract kSealD{
    .scope = ProtectionScope::kPlanRows,
    .wire = WireVisibility::kPlanBoundary,
    .metadata = MetadataModel::kNone,
    .read_shape = SerializationShape::kAesAfterData,
    .pays_aes_occupancy = true,
};
constexpr SchemeContract kSealC{
    .scope = ProtectionScope::kPlanRows,
    .wire = WireVisibility::kPlanBoundary,
    .metadata = MetadataModel::kCounterLines,
    .read_shape = SerializationShape::kPadOverlapsData,
    .pays_aes_occupancy = true,
};
constexpr SchemeContract kGuardNN{
    .scope = ProtectionScope::kWeights,
    .wire = WireVisibility::kWeightsCipher,
    .metadata = MetadataModel::kNone,
    .read_shape = SerializationShape::kAesAfterData,
    .pays_aes_occupancy = true,
};

const BaselineModel g_baseline{};
const DirectModel g_direct{kDirectFull};
const CounterModel g_counter{kCounterFull};
const DirectModel g_seal_d{kSealD};
const CounterModel g_seal_c{kSealC};
const SeculatorModel g_seculator{kCounterFull};
const DirectModel g_guardnn{kGuardNN};

// Paper schemes first (the order the fig benches sweep), rivals after.
constexpr int kNumSchemes = 7;
const std::array<SchemeInfo, kNumSchemes> g_registry{{
    {"baseline", "Baseline", EncryptionScheme::kNone, ProtectionScope::kNone,
     &g_baseline, /*paper=*/true},
    {"direct", "Direct", EncryptionScheme::kDirect, ProtectionScope::kAll,
     &g_direct, /*paper=*/true},
    {"counter", "Counter", EncryptionScheme::kCounter, ProtectionScope::kAll,
     &g_counter, /*paper=*/true},
    {"seal-d", "SEAL-D", EncryptionScheme::kDirect, ProtectionScope::kPlanRows,
     &g_seal_d, /*paper=*/true},
    {"seal-c", "SEAL-C", EncryptionScheme::kCounter, ProtectionScope::kPlanRows,
     &g_seal_c, /*paper=*/true},
    {"seculator", "Seculator", EncryptionScheme::kCounter, ProtectionScope::kAll,
     &g_seculator, /*paper=*/false},
    {"guardnn", "GuardNN", EncryptionScheme::kDirect, ProtectionScope::kWeights,
     &g_guardnn, /*paper=*/false},
}};

}  // namespace

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
