#include "verify/scheme_checkers.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string_view>

#include "crypto/modes.hpp"
#include "sim/functional_memory.hpp"
#include "sim/mem_controller.hpp"

namespace sealdl::verify {

namespace {

constexpr std::uint64_t kLine = crypto::kLineBytes;

std::uint64_t dir_sum(const TaintCounts& counts, TaintClass cls) {
  const auto i = static_cast<std::size_t>(cls);
  return counts.read[i] + counts.write[i];
}

std::uint64_t plain_bytes(const TaintCounts& counts) {
  return dir_sum(counts, TaintClass::kWeightPlain) +
         dir_sum(counts, TaintClass::kFmapPlain);
}

std::uint64_t cipher_bytes(const TaintCounts& counts) {
  return dir_sum(counts, TaintClass::kWeightCipher) +
         dir_sum(counts, TaintClass::kFmapCipher);
}

std::uint64_t all_bytes(const TaintCounts& counts) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kTaintClassCount; ++i) {
    sum += counts.read[i] + counts.write[i];
  }
  return sum;
}

/// The wire policy for one data line under `entry`'s scope.
WirePolicy wire_policy(const sim::SchemeInfo& entry, const AnalysisInput& input,
                       const core::Region& region, sim::Addr line_addr) {
  if (const auto fixed = scheme_wire_policy(entry, region.kind)) return *fixed;
  return plan_line_policy(input, region, line_addr);
}

void add_error(Report& report, const char* rule, const std::string& layer,
               sim::Addr begin, sim::Addr end, std::string message) {
  report.add({.rule = rule,
              .severity = Severity::kError,
              .layer = layer,
              .begin = begin,
              .end = end,
              .message = std::move(message)});
}

/// Latency of a line read issued at `now` on a fresh controller configured
/// for `entry` (no secure map, so the probe address is in-scope for every
/// non-baseline scheme).
struct TimingProbe {
  sim::MemoryController controller;

  explicit TimingProbe(const sim::SchemeInfo& entry)
      : controller(probe_config(entry), nullptr) {}

  static sim::GpuConfig probe_config(const sim::SchemeInfo& entry) {
    sim::GpuConfig config = sim::GpuConfig::gtx480();
    config.scheme = &entry;
    return config;
  }

  sim::Cycle read_latency(sim::Cycle now, sim::Addr addr) {
    return controller.read_line(now, addr) - now;
  }
};

/// splitmix64: the oracle's known-plaintext generator. Purely a function of
/// the byte address, so writer and checker agree without shared state.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void fill_expected_plaintext(sim::Addr line_addr,
                             std::span<std::uint8_t> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t word = mix64(line_addr + (i & ~std::uint64_t{7}));
    out[i] = static_cast<std::uint8_t>(word >> ((i & 7) * 8));
  }
}

/// The transcript's line sample for one region: the first and last line of
/// every row/channel, and a stride scan capped at 2048 lines for dense FC
/// vectors that have no per-unit structure.
std::vector<sim::Addr> sampled_lines(const core::Region& region) {
  constexpr std::uint64_t kMaxLinesPerRegion = 2048;
  std::vector<sim::Addr> lines;
  if (region.end <= region.begin || region.pitch == 0) return lines;
  if (!region.dense_fc && region.pitch >= kLine && region.units > 0) {
    for (int u = 0; u < region.units; ++u) {
      const sim::Addr base =
          region.begin + static_cast<std::uint64_t>(u) * region.pitch;
      lines.push_back(base);
      if (region.pitch > kLine) lines.push_back(base + region.pitch - kLine);
    }
    return lines;
  }
  const std::uint64_t nlines = (region.end - region.begin) / kLine;
  const std::uint64_t step = std::max<std::uint64_t>(1, nlines / kMaxLinesPerRegion);
  for (std::uint64_t k = 0; k < nlines; k += step) {
    lines.push_back(region.begin + k * kLine);
  }
  const sim::Addr last = region.end - kLine;
  if (lines.empty() || lines.back() != last) lines.push_back(last);
  return lines;
}

/// The oracle transcript behind check_scheme_oracle. With `forge_lying_flag`
/// it adds one observation whose encrypted flag lies — preferring a line that
/// really was ciphertext, else any capture — which only the known-plaintext
/// cross-check can see (the scheme-oracle injection).
void oracle_transcript(const sim::SchemeInfo& entry, const AnalysisInput& input,
                       bool forge_lying_flag, Report& report) {
  crypto::Key128 key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  sim::FunctionalMemory memory(entry, &input.heap.secure_map(), key);
  TaintLedger ledger;
  TaintProbe probe(&input, &ledger);
  memory.set_probe(&probe);

  std::vector<sim::Addr> lines;
  for (const core::Region& region : input.layout->directory()) {
    const auto sampled = sampled_lines(region);
    lines.insert(lines.end(), sampled.begin(), sampled.end());
  }
  std::array<std::uint8_t, kLine> buf{};
  for (const sim::Addr addr : lines) {
    fill_expected_plaintext(addr, buf);
    memory.write(addr, buf);
  }
  for (const sim::Addr addr : lines) memory.read(addr, buf);

  if (forge_lying_flag && !ledger.captures().empty()) {
    sim::Addr target = ledger.captures().begin()->first;
    for (const auto& [addr, image] : ledger.captures()) {
      if (image.encrypted) {
        target = addr;
        break;
      }
    }
    fill_expected_plaintext(target, buf);
    probe.on_data(target, buf, /*is_write=*/false, /*encrypted=*/true);
  }

  const std::string name = entry.cli_name;
  for (const auto& [addr, image] : ledger.captures()) {
    if (addr >= sim::kCounterRegionBase) continue;
    if (input.layout->region_at(addr) == nullptr) continue;
    fill_expected_plaintext(addr, buf);
    const bool equal = image.size == kLine &&
                       std::equal(buf.begin(), buf.end(), image.bytes.begin());
    if (image.encrypted && equal) {
      add_error(report, "scheme.oracle", name, addr, addr + kLine,
                "encrypted flag claims ciphertext but the wire bytes equal "
                "the known plaintext — the flag lied");
    } else if (!image.encrypted && !equal) {
      add_error(report, "scheme.oracle", name, addr, addr + kLine,
                "plaintext-flagged transfer does not match the known "
                "plaintext image");
    }
  }
}

}  // namespace

std::vector<std::string> scheme_rules() {
  return {"scheme.registry", "scheme.wire",   "scheme.boundary",
          "scheme.metadata", "scheme.coverage", "scheme.timing",
          "scheme.oracle"};
}

std::optional<WirePolicy> scheme_wire_policy(const sim::SchemeInfo& entry,
                                             core::Region::Kind kind) {
  switch (entry.scope) {
    case sim::ProtectionScope::kNone:
      return WirePolicy::kMustPlain;
    case sim::ProtectionScope::kAll:
      return WirePolicy::kMustCipher;
    case sim::ProtectionScope::kPlanRows:
      return std::nullopt;
    case sim::ProtectionScope::kWeights:
      return kind == core::Region::Kind::kWeights ? WirePolicy::kMustCipher
                                                  : WirePolicy::kMustPlain;
  }
  return std::nullopt;
}

WirePolicy plan_line_policy(const AnalysisInput& input, const core::Region& region,
                            sim::Addr line_addr) {
  if (!input.plan) return WirePolicy::kMustPlain;
  // The network output buffer is always encrypted under SEAL.
  if (region.spec_index >= input.specs.size()) return WirePolicy::kMustCipher;
  const std::uint64_t off = line_addr - region.begin;
  if (region.kind == core::Region::Kind::kWeights) {
    const int lp_idx = input.layout->plan_index(region.spec_index);
    const int row = static_cast<int>(off / region.pitch);
    return input.plan->row_protected(static_cast<std::size_t>(lp_idx), row)
               ? WirePolicy::kMustCipher
               : WirePolicy::kMustPlain;
  }
  const int cp = input.layout->consumer_plan_index(region.spec_index);
  if (cp < 0) return WirePolicy::kMustPlain;
  const auto& lp = input.plan->layer(static_cast<std::size_t>(cp));
  if (region.dense_fc) {
    // 32 features per line; the line is ciphertext iff any feature in it is
    // encrypted (mirrors SecureMap::line_is_secure over the 4-byte marks).
    const int features = input.specs[region.spec_index].in_features;
    const int f0 = static_cast<int>(off / 4);
    const int f1 = std::min(features, f0 + static_cast<int>(kLine / 4));
    for (int f = f0; f < f1; ++f) {
      if (row_encrypted_safe(lp, f)) return WirePolicy::kMustCipher;
    }
    return WirePolicy::kMustPlain;
  }
  const int channel = static_cast<int>(off / region.pitch);
  return row_encrypted_safe(lp, channel) ? WirePolicy::kMustCipher
                                         : WirePolicy::kMustPlain;
}

void check_scheme_registry(std::span<const sim::SchemeInfo> entries,
                           Report& report) {
  std::set<std::string_view> cli_names;
  std::set<std::string_view> displays;
  for (const sim::SchemeInfo& info : entries) {
    const std::string name = info.cli_name;
    if (!cli_names.insert(info.cli_name).second) {
      add_error(report, "scheme.registry", name, 0, 0,
                "duplicate CLI name '" + name + "' in the scheme registry");
    }
    if (!displays.insert(info.display).second) {
      add_error(report, "scheme.registry", name, 0, 0,
                "duplicate display name '" + std::string(info.display) +
                    "' in the scheme registry");
    }
    if ((info.family == sim::EncryptionScheme::kNone) !=
        (info.scope == sim::ProtectionScope::kNone)) {
      add_error(report, "scheme.registry", name, 0, 0,
                "entry '" + name +
                    "' protects nothing iff its family is kNone — family and "
                    "scope disagree");
    }
    // Name round-trip through the shared parser: both spellings must resolve
    // back to an entry carrying this CLI name (drift check for the
    // name<->enum<->CLI collapse).
    for (const char* spelling : {info.cli_name, info.display}) {
      const sim::SchemeInfo* found = sim::find_scheme(spelling);
      if (found == nullptr ||
          std::string_view(found->cli_name) != info.cli_name) {
        add_error(report, "scheme.registry", name, 0, 0,
                  "spelling '" + std::string(spelling) +
                      "' does not resolve back to entry '" + name + "'");
      }
    }
  }
}

void check_scheme_timing(const sim::SchemeInfo& entry,
                         sim::EncryptionScheme claimed_family, Report& report) {
  const std::string name = entry.cli_name;
  constexpr sim::Addr kAddr = 0x1000'0000;
  // Quiet-time reference: a late enough issue cycle that every pipe is idle
  // again, so latencies are pure (no occupancy queueing from earlier probes).
  constexpr sim::Cycle kQuiet = 1'000'000;

  TimingProbe baseline(*sim::baseline_scheme());
  const sim::Cycle plain = baseline.read_latency(0, kAddr);

  TimingProbe probe(entry);
  const sim::Cycle cold = probe.read_latency(0, kAddr);
  // Second read of the same line at quiet time: for counter-family schemes
  // the counter is now cached, so this is the steady-state (hit) latency.
  const sim::Cycle warm = probe.read_latency(kQuiet, kAddr);

  switch (claimed_family) {
    case sim::EncryptionScheme::kNone:
      if (cold != plain || warm != plain) {
        add_error(report, "scheme.timing", name, 0, 0,
                  "claimed passthrough reads but a secure read took " +
                      std::to_string(cold) + "/" + std::to_string(warm) +
                      " cycles vs " + std::to_string(plain) + " plain");
      }
      break;
    case sim::EncryptionScheme::kDirect:
      // Serialized crypto can never match the plain latency — cold or warm.
      if (cold <= plain || warm <= plain) {
        add_error(report, "scheme.timing", name, 0, 0,
                  "claimed AES-after-data serialization but a secure "
                  "read took " +
                      std::to_string(cold) + "/" + std::to_string(warm) +
                      " cycles vs " + std::to_string(plain) +
                      " plain — the cipher is not on the critical path");
      }
      break;
    case sim::EncryptionScheme::kCounter:
      // On a counter hit the pad hides behind the data fetch entirely; only
      // the final XOR remains visible. A cold miss must cost more than that.
      if (warm != plain + 1) {
        add_error(report, "scheme.timing", name, 0, 0,
                  "claimed pad generation overlaps the data fetch on "
                  "a counter hit, but a warm read took " +
                      std::to_string(warm) + " cycles vs " +
                      std::to_string(plain) + " plain (+1 XOR expected)");
      }
      if (cold <= warm) {
        add_error(report, "scheme.timing", name, 0, 0,
                  "claimed the pad overlap is hidden only on a "
                  "counter hit, but a cold (miss) read took " +
                      std::to_string(cold) + " cycles vs " +
                      std::to_string(warm) + " warm");
      }
      break;
  }
}

void check_scheme_wire(const sim::SchemeInfo& entry,
                       const SchemeRunEvidence& evidence, Report& report) {
  const AnalysisInput& input = *evidence.input;
  std::uint64_t untagged = 0;
  for (const auto& [addr, counts] : evidence.ledger->lines()) {
    if (addr >= sim::kCounterRegionBase) continue;
    const core::Region* region = input.layout->region_at(addr);
    if (region == nullptr) {
      untagged += all_bytes(counts);
      continue;
    }
    const WirePolicy policy = wire_policy(entry, input, *region, addr);
    const std::uint64_t plain = plain_bytes(counts);
    const std::uint64_t cipher = cipher_bytes(counts);
    if (policy == WirePolicy::kMustCipher && plain > 0) {
      add_error(report, "scheme.wire", region->name, addr, addr + kLine,
                std::to_string(plain) + " plaintext byte(s) of " +
                    region->name + " on the bus, but " + entry.cli_name +
                    "'s scope requires ciphertext here");
    }
    if (policy == WirePolicy::kMustPlain && cipher > 0) {
      add_error(report, "scheme.wire", region->name, addr, addr + kLine,
                std::to_string(cipher) + " ciphertext byte(s) of " +
                    region->name + " on the bus, but " + entry.cli_name +
                    "'s scope leaves this address unprotected");
    }
  }
  if (untagged > 0) {
    report.add({.rule = "scheme.wire",
                .severity = Severity::kWarning,
                .layer = "",
                .begin = 0,
                .end = 0,
                .message = std::to_string(untagged) +
                           " byte(s) crossed the bus outside every known "
                           "region (untagged provenance)"});
  }
}

void check_scheme_boundary(const sim::SchemeInfo& entry,
                           const SchemeRunEvidence& evidence, Report& report) {
  const AnalysisInput& input = *evidence.input;
  const sim::ProtectionScope scope = entry.scope;
  const std::span<const TaintCell> cells = evidence.ledger->cells();
  for (const core::Region& region : input.layout->directory()) {
    if (region.kind != core::Region::Kind::kWeights || region.units <= 0) continue;
    std::vector<std::uint8_t> seen_plain(static_cast<std::size_t>(region.units), 0);
    std::vector<std::uint8_t> seen_cipher(static_cast<std::size_t>(region.units), 0);
    for (auto it = std::lower_bound(cells.begin(), cells.end(), region.begin,
                                    [](const TaintCell& cell, sim::Addr addr) {
                                      return cell.line < addr;
                                    });
         it != cells.end() && it->line < region.end; ++it) {
      const auto row =
          static_cast<std::size_t>((it->line - region.begin) / region.pitch);
      if (row >= seen_plain.size() || it->bytes == 0) continue;
      if (it->cls == TaintClass::kWeightPlain) seen_plain[row] = 1;
      if (it->cls == TaintClass::kWeightCipher) seen_cipher[row] = 1;
    }
    for (int r = 0; r < region.units; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      bool protected_row = false;
      switch (scope) {
        case sim::ProtectionScope::kNone:
          protected_row = false;
          break;
        case sim::ProtectionScope::kAll:
        case sim::ProtectionScope::kWeights:
          protected_row = true;
          break;
        case sim::ProtectionScope::kPlanRows: {
          if (!input.plan) continue;
          const int lp_idx = input.layout->plan_index(region.spec_index);
          if (lp_idx < 0) continue;
          protected_row = input.plan->row_protected(
              static_cast<std::size_t>(lp_idx), r);
          break;
        }
      }
      const sim::Addr row_begin =
          region.begin + static_cast<std::uint64_t>(r) * region.pitch;
      if (protected_row && seen_plain[ri]) {
        add_error(report, "scheme.boundary", region.name, row_begin,
                  row_begin + region.pitch,
                  "row " + std::to_string(r) + " of " + region.name +
                      " is inside " + entry.cli_name +
                      "'s protection boundary (" +
                      sim::protection_scope_name(scope) +
                      ") but crossed the bus as plaintext");
      } else if (!protected_row && seen_cipher[ri] && !seen_plain[ri]) {
        add_error(report, "scheme.boundary", region.name, row_begin,
                  row_begin + region.pitch,
                  "row " + std::to_string(r) + " of " + region.name +
                      " is outside " + entry.cli_name +
                      "'s protection boundary but crossed the bus only as "
                      "ciphertext — the boundary grew");
      }
    }
  }
}

void check_scheme_metadata(const sim::SchemeInfo& entry,
                           const SchemeRunEvidence& evidence, Report& report) {
  const sim::SimStats& stats = evidence.stats;
  const std::string name = entry.cli_name;
  const std::uint64_t ledger_meta =
      evidence.ledger->class_bytes(TaintClass::kCounterMeta);
  if (entry.family != sim::EncryptionScheme::kCounter) {
    if (stats.counter_traffic_bytes != 0 || stats.counter_hits != 0 ||
        stats.counter_misses != 0 || ledger_meta != 0) {
      add_error(report, "scheme.metadata", name, 0, 0,
                "counter metadata under a scheme declaring none (controller " +
                    std::to_string(stats.counter_traffic_bytes) +
                    " B, ledger " + std::to_string(ledger_meta) + " B, " +
                    std::to_string(stats.counter_hits + stats.counter_misses) +
                    " cache lookups)");
    }
    return;
  }
  const std::uint64_t decomposed = stats.counter_fill_bytes +
                                   stats.counter_writeback_bytes +
                                   stats.counter_flush_bytes;
  if (stats.counter_traffic_bytes != decomposed) {
    add_error(report, "scheme.metadata", name, 0, 0,
              "metadata traffic (" +
                  std::to_string(stats.counter_traffic_bytes) +
                  " B) != fills + writebacks + flushes (" +
                  std::to_string(stats.counter_fill_bytes) + " + " +
                  std::to_string(stats.counter_writeback_bytes) + " + " +
                  std::to_string(stats.counter_flush_bytes) + " B)");
  }
  const std::uint64_t expected_fills =
      stats.counter_misses * static_cast<std::uint64_t>(evidence.config.line_bytes);
  if (stats.counter_fill_bytes != expected_fills) {
    add_error(report, "scheme.metadata", name, 0, 0,
              "counter fills (" + std::to_string(stats.counter_fill_bytes) +
                  " B) != misses x line bytes (" +
                  std::to_string(stats.counter_misses) + " x " +
                  std::to_string(evidence.config.line_bytes) + ")");
  }
  if (ledger_meta != stats.counter_traffic_bytes) {
    add_error(report, "scheme.metadata", name, 0, 0,
              "counter-region bytes on the bus (" +
                  std::to_string(ledger_meta) +
                  ") do not reconcile with the controllers' metadata "
                  "accounting (" +
                  std::to_string(stats.counter_traffic_bytes) + ")");
  }
}

void check_scheme_coverage(const sim::SchemeInfo& entry,
                           const SchemeRunEvidence& evidence, Report& report) {
  const sim::SimStats& stats = evidence.stats;
  const std::string name = entry.cli_name;
  const std::uint64_t data = stats.dram_read_bytes + stats.dram_write_bytes;
  switch (entry.scope) {
    case sim::ProtectionScope::kNone:
      if (stats.encrypted_bytes != 0 || stats.bypassed_bytes != 0) {
        add_error(report, "scheme.coverage", name, 0, 0,
                  "baseline scope with nonzero secure-path accounting (" +
                      std::to_string(stats.encrypted_bytes) + " encrypted, " +
                      std::to_string(stats.bypassed_bytes) + " bypassed)");
      }
      break;
    case sim::ProtectionScope::kAll:
      if (stats.bypassed_bytes != 0 || stats.encrypted_bytes != data) {
        add_error(report, "scheme.coverage", name, 0, 0,
                  "full-coverage scope must encrypt every data byte (" +
                      std::to_string(stats.encrypted_bytes) + " encrypted + " +
                      std::to_string(stats.bypassed_bytes) + " bypassed of " +
                      std::to_string(data) + ")");
      }
      break;
    case sim::ProtectionScope::kPlanRows:
    case sim::ProtectionScope::kWeights:
      if (stats.encrypted_bytes + stats.bypassed_bytes != data) {
        add_error(report, "scheme.coverage", name, 0, 0,
                  "selective scope must partition data traffic (" +
                      std::to_string(stats.encrypted_bytes) + " encrypted + " +
                      std::to_string(stats.bypassed_bytes) +
                      " bypassed != " + std::to_string(data) + ")");
      }
      break;
  }
  if (entry.family != sim::EncryptionScheme::kNone) {
    if (stats.encrypted_bytes > 0 && stats.aes_busy_cycles <= 0.0) {
      add_error(report, "scheme.coverage", name, 0, 0,
                std::to_string(stats.encrypted_bytes) +
                    " encrypted byte(s) booked zero AES occupancy — every "
                    "encrypted byte must pay");
    }
  } else if (stats.aes_busy_cycles != 0.0) {
    add_error(report, "scheme.coverage", name, 0, 0,
              "AES occupancy (" + std::to_string(stats.aes_busy_cycles) +
                  " engine-cycles) under a scheme that encrypts nothing");
  }
}

Report run_scheme_conformance(const sim::SchemeInfo& entry,
                              const SchemeRunEvidence& evidence) {
  Report report;
  check_scheme_registry(sim::scheme_registry(), report);
  check_scheme_timing(entry, entry.family, report);
  check_scheme_wire(entry, evidence, report);
  check_scheme_boundary(entry, evidence, report);
  check_scheme_metadata(entry, evidence, report);
  check_scheme_coverage(entry, evidence, report);
  return report;
}

void check_scheme_oracle(const sim::SchemeInfo& entry,
                         const AnalysisInput& input, Report& report) {
  oracle_transcript(entry, input, /*forge_lying_flag=*/false, report);
}

Report run_scheme_injection(Injection injection,
                            const sim::SchemeInfo& entry,
                            const SchemeRunEvidence& evidence) {
  Report report;
  const AnalysisInput& input = *evidence.input;
  switch (injection) {
    case Injection::kSchemeWire: {
      // Record plaintext bytes on the first line the scope requires to be
      // ciphertext; only copies are touched, never the run's real ledger.
      TaintLedger corrupted = *evidence.ledger;
      for (const core::Region& region : input.layout->directory()) {
        if (wire_policy(entry, input, region, region.begin) ==
            WirePolicy::kMustCipher) {
          corrupted.record(region.begin, static_cast<std::uint32_t>(kLine),
                           /*is_write=*/false,
                           region.kind == core::Region::Kind::kWeights
                               ? TaintClass::kWeightPlain
                               : TaintClass::kFmapPlain);
          break;
        }
      }
      corrupted.seal();
      SchemeRunEvidence doctored = evidence;
      doctored.ledger = &corrupted;
      check_scheme_wire(entry, doctored, report);
      return report;
    }
    case Injection::kSchemeBoundary: {
      // Plaintext inside a protected weight row: find one under the scope.
      TaintLedger corrupted = *evidence.ledger;
      const sim::ProtectionScope scope = entry.scope;
      for (const core::Region& region : input.layout->directory()) {
        if (region.kind != core::Region::Kind::kWeights || region.units <= 0) continue;
        int row = -1;
        if (scope == sim::ProtectionScope::kAll ||
            scope == sim::ProtectionScope::kWeights) {
          row = 0;
        } else if (scope == sim::ProtectionScope::kPlanRows && input.plan) {
          const int lp_idx = input.layout->plan_index(region.spec_index);
          if (lp_idx < 0) continue;
          for (int r = 0; r < region.units; ++r) {
            if (input.plan->row_protected(static_cast<std::size_t>(lp_idx), r)) {
              row = r;
              break;
            }
          }
        }
        if (row < 0) continue;
        corrupted.record(
            region.begin + static_cast<std::uint64_t>(row) * region.pitch,
            static_cast<std::uint32_t>(kLine), /*is_write=*/false,
            TaintClass::kWeightPlain);
        break;
      }
      corrupted.seal();
      SchemeRunEvidence doctored = evidence;
      doctored.ledger = &corrupted;
      check_scheme_boundary(entry, doctored, report);
      return report;
    }
    case Injection::kSchemeMetadata: {
      // One phantom counter line the bus probe never saw: breaks the
      // fills/writebacks/flushes decomposition for counter schemes, and the
      // zero-metadata clause for everything else.
      SchemeRunEvidence doctored = evidence;
      doctored.stats.counter_traffic_bytes +=
          static_cast<std::uint64_t>(evidence.config.line_bytes);
      check_scheme_metadata(entry, doctored, report);
      return report;
    }
    case Injection::kSchemeCoverage: {
      // One claimed-encrypted byte no controller accounted for.
      SchemeRunEvidence doctored = evidence;
      doctored.stats.encrypted_bytes += 1;
      check_scheme_coverage(entry, doctored, report);
      return report;
    }
    case Injection::kSchemeTiming: {
      // Claim the other family's serialization: passthrough for a crypto
      // scheme, serialized AES for baseline.
      check_scheme_timing(entry,
                          entry.family == sim::EncryptionScheme::kNone
                              ? sim::EncryptionScheme::kDirect
                              : sim::EncryptionScheme::kNone,
                          report);
      return report;
    }
    case Injection::kSchemeRegistry: {
      // Duplicate the first entry's CLI name onto the second in a copy of
      // the table.
      const auto real = sim::scheme_registry();
      std::vector<sim::SchemeInfo> corrupted(real.begin(), real.end());
      if (corrupted.size() >= 2) corrupted[1].cli_name = corrupted[0].cli_name;
      check_scheme_registry(corrupted, report);
      return report;
    }
    case Injection::kSchemeOracle:
      oracle_transcript(entry, input, /*forge_lying_flag=*/true, report);
      return report;
    default:
      break;
  }
  throw std::invalid_argument(std::string("run_scheme_injection: ") +
                              injection_name(injection) +
                              " is not a scheme.* injection");
}

}  // namespace sealdl::verify
