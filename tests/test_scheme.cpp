// Scheme registry, the clauses derived from each entry, and the scheme.*
// conformance analyzer (src/verify/scheme_checkers.*), plus the counter-cache
// edge cases the counter-family metadata path leans on.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "models/layer_spec.hpp"
#include "sim/cache.hpp"
#include "sim/functional_memory.hpp"
#include "sim/mem_controller.hpp"
#include "sim/scheme_registry.hpp"
#include "verify/scheme_checkers.hpp"
#include "verify/taint.hpp"
#include "workload/network_runner.hpp"

namespace sealdl {
namespace {

// ------------------------------------------------------------- registry ---

TEST(SchemeRegistry, HoldsPaperSchemesAndRivals) {
  const auto entries = sim::scheme_registry();
  ASSERT_EQ(entries.size(), 7u);
  int paper = 0;
  for (const sim::SchemeInfo& info : entries) paper += info.paper ? 1 : 0;
  EXPECT_EQ(paper, 5);
}

TEST(SchemeRegistry, CliAndDisplayNamesResolve) {
  for (const sim::SchemeInfo& info : sim::scheme_registry()) {
    const sim::SchemeInfo* by_cli = sim::find_scheme(info.cli_name);
    ASSERT_NE(by_cli, nullptr) << info.cli_name;
    EXPECT_STREQ(by_cli->cli_name, info.cli_name);
    const sim::SchemeInfo* by_display = sim::find_scheme(info.display);
    ASSERT_NE(by_display, nullptr) << info.display;
    EXPECT_STREQ(by_display->cli_name, info.cli_name);
  }
  EXPECT_EQ(sim::find_scheme("bogus"), nullptr);
  EXPECT_EQ(sim::find_scheme(""), nullptr);
}

// Name <-> enum <-> CLI drift: every EncryptionScheme family must have a
// canonical registry entry whose display name matches scheme_name(), so the
// enum can never gain a value the shared table does not know about.
TEST(SchemeRegistry, EveryFamilyHasCanonicalEntry) {
  for (const sim::EncryptionScheme family :
       {sim::EncryptionScheme::kNone, sim::EncryptionScheme::kDirect,
        sim::EncryptionScheme::kCounter}) {
    const sim::SchemeInfo* canonical = sim::find_scheme(sim::scheme_name(family));
    ASSERT_NE(canonical, nullptr) << sim::scheme_name(family);
    EXPECT_EQ(canonical->family, family);
    EXPECT_FALSE(canonical->selective());
  }
}

TEST(SchemeRegistry, DefaultConfigRunsBaseline) {
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  ASSERT_NE(config.scheme, nullptr);
  EXPECT_STREQ(config.scheme->cli_name, "baseline");
  EXPECT_EQ(config.scheme, &sim::scheme_registry()[0]);
}

// One per-line rule: for every entry the timing controller and the
// functional memory agree line by line, with no map and with a map that
// marks one of the two probed lines.
TEST(SchemeRegistry, ControllerAndFunctionalMemoryShareLineRule) {
  sim::SecureMap map;
  map.add_range(0x1000, 128);
  const sim::SecureMap* maps[] = {nullptr, &map};
  const crypto::Key128 key{};
  for (const sim::SchemeInfo& info : sim::scheme_registry()) {
    sim::GpuConfig config = sim::GpuConfig::gtx480();
    config.scheme = &info;
    for (const sim::SecureMap* m : maps) {
      const sim::MemoryController mc(config, m);
      const sim::FunctionalMemory memory(info, m, key);
      for (const sim::Addr line : {sim::Addr{0x1000}, sim::Addr{0x2000}}) {
        const bool expected =
            info.family != sim::EncryptionScheme::kNone &&
            (info.scope == sim::ProtectionScope::kAll || m == nullptr ||
             line == 0x1000);
        EXPECT_EQ(mc.needs_encryption(line), expected) << info.cli_name;
        EXPECT_EQ(memory.line_is_secure(line), expected) << info.cli_name;
      }
    }
  }
}

TEST(SchemeRegistry, StaticConformanceIsClean) {
  verify::Report report;
  verify::check_scheme_registry(sim::scheme_registry(), report);
  EXPECT_EQ(report.error_count(), 0u) << report.to_text();
}

TEST(SchemeRegistry, DuplicateNameFails) {
  const auto real = sim::scheme_registry();
  std::vector<sim::SchemeInfo> corrupted(real.begin(), real.end());
  corrupted[1].cli_name = corrupted[0].cli_name;
  verify::Report report;
  verify::check_scheme_registry(corrupted, report);
  EXPECT_TRUE(report.fired("scheme.registry"));
}

// A registry that loses an entry (a "missing entry" drift) is caught: the
// canonical family coverage breaks as soon as a family's entry disappears.
TEST(SchemeRegistry, RuleListMatchesFamilyCount) {
  const auto rules = verify::scheme_rules();
  EXPECT_EQ(rules.size(), 7u);
  const std::set<std::string> unique(rules.begin(), rules.end());
  EXPECT_EQ(unique.size(), rules.size());
  for (const std::string& rule : rules) {
    EXPECT_EQ(rule.rfind("scheme.", 0), 0u) << rule;
  }
}

// ------------------------------------------------------ derived clauses ---

// Which side of the bus a line must cross on; kPlan = the SE plan decides.
enum class WireSide { kPlain, kCipher, kPlan };
enum class ReadShape { kPassthrough, kAesAfterData, kPadOverlap };

struct DerivedClauses {
  WireSide weight_line;
  WireSide fmap_line;
  bool metadata;
  ReadShape read_shape;
  bool aes_occupancy;
  int counter_bytes;

  bool operator==(const DerivedClauses&) const = default;
};

WireSide wire_side(const sim::SchemeInfo& info, core::Region::Kind kind) {
  const auto policy = verify::scheme_wire_policy(info, kind);
  if (!policy) return WireSide::kPlan;
  return *policy == verify::WirePolicy::kMustCipher ? WireSide::kCipher
                                                     : WireSide::kPlain;
}

ReadShape read_shape(sim::EncryptionScheme family) {
  switch (family) {
    case sim::EncryptionScheme::kNone:
      return ReadShape::kPassthrough;
    case sim::EncryptionScheme::kDirect:
      return ReadShape::kAesAfterData;
    case sim::EncryptionScheme::kCounter:
      return ReadShape::kPadOverlap;
  }
  return ReadShape::kPassthrough;
}

DerivedClauses derived_clauses(const sim::SchemeInfo& info) {
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &info;
  const sim::MemoryController controller(config, nullptr);
  return {wire_side(info, core::Region::Kind::kWeights),
          wire_side(info, core::Region::Kind::kFmap),
          controller.counter_hit_rate() != nullptr,
          read_shape(info.family),
          info.family != sim::EncryptionScheme::kNone,
          info.counter_bytes_per_line(config)};
}

// Every clause the analyzer and the controller derive from a registry entry,
// pinned per entry.
TEST(SchemeRegistry, DerivedClausesPerEntry) {
  using enum WireSide;
  using enum ReadShape;
  const std::pair<const char*, DerivedClauses> expected[] = {
      {"baseline", {kPlain, kPlain, false, kPassthrough, false, 0}},
      {"direct", {kCipher, kCipher, false, kAesAfterData, true, 0}},
      {"counter", {kCipher, kCipher, true, kPadOverlap, true, 8}},
      {"seal-d", {kPlan, kPlan, false, kAesAfterData, true, 0}},
      {"seal-c", {kPlan, kPlan, true, kPadOverlap, true, 8}},
      {"seculator", {kCipher, kCipher, true, kPadOverlap, true, 1}},
      {"guardnn", {kCipher, kPlain, false, kAesAfterData, true, 0}},
  };
  ASSERT_EQ(sim::scheme_registry().size(), std::size(expected));
  for (const auto& [name, clauses] : expected) {
    const sim::SchemeInfo* info = sim::find_scheme(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_TRUE(derived_clauses(*info) == clauses) << name;
  }
}

// ------------------------------------------------------------ timing ---

TEST(SchemeTiming, EveryFamilyMatchesMeasuredShape) {
  for (const sim::SchemeInfo& info : sim::scheme_registry()) {
    verify::Report report;
    verify::check_scheme_timing(info, info.family, report);
    EXPECT_EQ(report.error_count(), 0u)
        << info.cli_name << ": " << report.to_text();
  }
}

TEST(SchemeTiming, FalsifiedShapeFiresForEveryEntry) {
  for (const sim::SchemeInfo& info : sim::scheme_registry()) {
    const sim::EncryptionScheme other =
        info.family == sim::EncryptionScheme::kNone
            ? sim::EncryptionScheme::kDirect
            : sim::EncryptionScheme::kNone;
    verify::Report report;
    verify::check_scheme_timing(info, other, report);
    EXPECT_TRUE(report.fired("scheme.timing")) << info.cli_name;
  }
}

// Seculator packs 8x more counters per cache line than the paper's Counter
// mode, so a strided sweep that thrashes Counter's cache still hits.
TEST(SchemeTiming, SeculatorPacksMoreCountersPerLine) {
  const sim::SchemeInfo* counter = sim::find_scheme("counter");
  const sim::SchemeInfo* seculator = sim::find_scheme("seculator");
  ASSERT_NE(counter, nullptr);
  ASSERT_NE(seculator, nullptr);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  EXPECT_EQ(seculator->counter_bytes_per_line(config), 1);
  EXPECT_GT(counter->counter_bytes_per_line(config), 1);
}

// --------------------------------------------------- run-level conformance ---

struct RunEvidence {
  verify::AnalysisInput input;
  verify::TaintLedger ledger;
  verify::SchemeRunEvidence evidence;
};

RunEvidence run_with_audit(const sim::SchemeInfo& info) {
  const auto specs = models::resnet18_specs(64);
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &info;
  verify::BuildOptions build;
  build.selective = info.scope == sim::ProtectionScope::kPlanRows;
  RunEvidence out{verify::build_input(specs, build), {}, {}};
  verify::TaintAuditor auditor(&out.input);
  workload::RunOptions options;
  options.max_tiles_per_layer = 16;
  options.probe_hook = &auditor;
  const auto result = workload::run_network(specs, config, options);
  sim::SimStats total;
  for (const auto& layer : result.layers) total.merge_from(layer.stats);
  out.ledger = auditor.ledger();
  out.evidence.input = &out.input;
  out.evidence.ledger = &out.ledger;
  out.evidence.stats = total;
  out.evidence.config = config;
  return out;
}

TEST(SchemeConformance, SealCRunIsCleanAndAllInjectionsFire) {
  const sim::SchemeInfo* info = sim::find_scheme("seal-c");
  ASSERT_NE(info, nullptr);
  const RunEvidence run = run_with_audit(*info);
  const verify::Report clean =
      verify::run_scheme_conformance(*info, run.evidence);
  EXPECT_EQ(clean.error_count(), 0u) << clean.to_text();
  int scheme_rows = 0;
  for (const verify::InjectionInfo& row : verify::injection_table()) {
    if (row.fires.front().rfind("scheme.", 0) != 0) continue;
    ++scheme_rows;
    const verify::Report seeded =
        verify::run_scheme_injection(row.id, *info, run.evidence);
    for (const std::string& rule : row.fires) {
      EXPECT_TRUE(seeded.fired(rule)) << row.name << " -> " << rule;
    }
  }
  EXPECT_EQ(scheme_rows, 7);
}

// GuardNN's weights-only boundary: the analyzer must both pass it clean and
// still catch a plaintext weight row seeded inside the protected set.
TEST(SchemeConformance, GuardNNWeightsScopeCleanAndCatchesBoundary) {
  const sim::SchemeInfo* info = sim::find_scheme("guardnn");
  ASSERT_NE(info, nullptr);
  const RunEvidence run = run_with_audit(*info);
  const verify::Report clean =
      verify::run_scheme_conformance(*info, run.evidence);
  EXPECT_EQ(clean.error_count(), 0u) << clean.to_text();
  const verify::Report seeded = verify::run_scheme_injection(
      verify::Injection::kSchemeBoundary, *info, run.evidence);
  EXPECT_TRUE(seeded.fired("scheme.boundary"));
}

// ------------------------------------------------------ known plaintext ---

/// The analysis input a scheme is audited against: plan rows for SEAL, the
/// plain region map for everything else (what sealdl-sim --scheme-audit
/// builds).
verify::AnalysisInput oracle_input(const sim::SchemeInfo& info) {
  verify::BuildOptions build;
  build.selective = info.scope == sim::ProtectionScope::kPlanRows;
  return verify::build_input(models::vgg16_specs(64), build);
}

TEST(SchemeOracle, EveryEntryCleanAndInjectionFires) {
  for (const sim::SchemeInfo& info : sim::scheme_registry()) {
    const verify::AnalysisInput input = oracle_input(info);
    verify::Report clean;
    verify::check_scheme_oracle(info, input, clean);
    EXPECT_EQ(clean.error_count(), 0u) << info.cli_name << ": " << clean.to_text();

    verify::SchemeRunEvidence evidence;
    evidence.input = &input;
    const verify::Report seeded = verify::run_scheme_injection(
        verify::Injection::kSchemeOracle, info, evidence);
    EXPECT_TRUE(seeded.fired("scheme.oracle")) << info.cli_name;
  }
}

// Known limitation: a weights-only entry is audited against an input built
// without a plan, whose secure map is empty, so the FunctionalMemory
// transcript encrypts nothing and the oracle only proves the plaintext side
// for GuardNN. A weights-only secure map in the analysis input closes this.
TEST(SchemeOracle, WeightsScopeInputHasNoSecureLinesYet) {
  const sim::SchemeInfo* info = sim::find_scheme("guardnn");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->scope, sim::ProtectionScope::kWeights);
  EXPECT_EQ(oracle_input(*info).heap.secure_map().secure_bytes(), 0u);
}

// ------------------------------------------------- counter-cache edges ------

// A counter cache small enough to thrash: every line maps distinct counter
// lines, so dirtying writes force eviction writebacks whose bytes must land
// in counter_writeback_bytes (and reconcile: traffic == fill + wb + flush).
TEST(CounterCacheEdges, EvictionWritebackBytesReconcile) {
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &sim::resolve_scheme("counter");
  config.counter_cache_kb = 1;  // 8 lines of 128B: tiny, thrashes fast
  sim::MemoryController mc(config, nullptr);
  // Each 128B data line holds 128/8 = 16 counters per counter line; stride
  // far enough that every write touches a distinct counter line.
  const sim::Addr stride =
      static_cast<sim::Addr>(config.line_bytes) *
      static_cast<sim::Addr>(config.counters_per_line());
  sim::Cycle now = 0;
  for (int i = 0; i < 64; ++i) {
    now = mc.write_line(now, 0x1000'0000 + static_cast<sim::Addr>(i) * stride);
  }
  EXPECT_GT(mc.counter_writeback_bytes(), 0u);
  const sim::Cycle flushed = mc.flush(now);
  EXPECT_GE(flushed, now);
  EXPECT_EQ(mc.counter_traffic_bytes(),
            mc.counter_fill_bytes() + mc.counter_writeback_bytes() +
                mc.counter_flush_bytes());
  sim::SimStats stats;
  mc.accumulate(stats);
  EXPECT_EQ(stats.counter_fill_bytes,
            stats.counter_misses * static_cast<std::uint64_t>(config.line_bytes));
}

// Counter lines for data addresses just below kCounterRegionBase must not
// alias the counter lines of low addresses: the mapping is injective per
// counter line even at the region boundary.
TEST(CounterCacheEdges, NoAliasingAtCounterRegionBoundary) {
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &sim::resolve_scheme("counter");
  sim::MemoryController mc(config, nullptr);
  const sim::Addr low = 0x1000;
  const sim::Addr high =
      sim::kCounterRegionBase - static_cast<sim::Addr>(config.line_bytes);
  sim::Cycle now = mc.read_line(0, low);
  now = mc.read_line(now, high);
  sim::SimStats stats;
  mc.accumulate(stats);
  // Both accesses miss: had the high address aliased the low one's counter
  // line, the second would have hit.
  EXPECT_EQ(stats.counter_misses, 2u);
  EXPECT_EQ(stats.counter_hits, 0u);
}

TEST(CounterCacheEdges, FlushAfterFlushIsIdempotent) {
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &sim::resolve_scheme("counter");
  sim::MemoryController mc(config, nullptr);
  sim::Cycle now = mc.write_line(0, 0x2000);
  now = mc.write_line(now, 0x4000'2000);
  const sim::Cycle first = mc.flush(now);
  EXPECT_GT(mc.counter_flush_bytes(), 0u);
  const std::uint64_t after_first = mc.counter_flush_bytes();
  const std::uint64_t traffic_after_first = mc.counter_traffic_bytes();
  // Nothing is dirty anymore: the second flush returns `now` untouched and
  // books no further traffic.
  const sim::Cycle second = mc.flush(first);
  EXPECT_EQ(second, first);
  EXPECT_EQ(mc.counter_flush_bytes(), after_first);
  EXPECT_EQ(mc.counter_traffic_bytes(), traffic_after_first);
}

// The raw cache honors the same idempotence at its own level, and set
// aliasing keeps tags distinct for same-set addresses.
TEST(CounterCacheEdges, SetAssocCacheFlushAndAliasing) {
  sim::SetAssocCache cache(1024, 2, 128);  // 4 sets x 2 ways
  const sim::Addr same_set_stride = 4 * 128;
  EXPECT_FALSE(cache.access(0x0, /*mark_dirty=*/false).hit);
  cache.insert(0x0, /*dirty=*/true);
  EXPECT_FALSE(cache.access(same_set_stride, false).hit);
  cache.insert(same_set_stride, /*dirty=*/true);
  // Same set, distinct tags: both resident, neither evicted with 2 ways.
  EXPECT_TRUE(cache.contains(0x0));
  EXPECT_TRUE(cache.contains(same_set_stride));
  // A third same-set line evicts the LRU (0x0) and reports its dirty victim.
  const sim::CacheResult inserted = cache.insert(2 * same_set_stride, true);
  EXPECT_TRUE(inserted.writeback.has_value());
  EXPECT_EQ(*inserted.writeback, 0x0u);
  EXPECT_FALSE(cache.contains(0x0));
  const auto drained = cache.flush_dirty();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_TRUE(cache.flush_dirty().empty());  // flush after flush: no-op
}

}  // namespace
}  // namespace sealdl
