// The scheme.* rule family: conformance of any registered secure-memory
// scheme against its own declared SchemeContract (sim/scheme_model.hpp).
//
// The family is generic: every clause is read off the contract of a registry
// entry and proved against the evidence of a real run — the taint ledger a
// TaintAuditor recorded, the controllers' SimStats accounting, a timing
// micro-probe through a real MemoryController, and a known-plaintext
// transcript through real AES. A scheme added to the registry is covered
// with no checker changes, and a scheme whose contract lies about its
// dataflow is caught.
//
//   scheme.registry  static table consistency: unique CLI/display names,
//                    entry scope <-> contract scope <-> family agreement,
//                    counter metadata declared iff a counter cache is used.
//   scheme.wire      ledger bytes respect the contract's WireVisibility
//                    (plan-boundary schemes follow plan_line_policy;
//                    weights-cipher schemes split by region kind; full
//                    schemes admit no wrong-side bytes at all); bytes
//                    outside every known region draw a warning.
//   scheme.boundary  row-level protection boundary over weight regions:
//                    the observed plaintext/ciphertext row sets match the
//                    scope (plan rows / all / none / every weight row).
//   scheme.metadata  metadata-traffic reconciliation: counter_traffic ==
//                    fills + writebacks + flushes, fills == misses x line,
//                    ledger counter-region bytes == controller accounting —
//                    and all of it zero for schemes declaring kNone.
//   scheme.coverage  SimStats identities: encrypted + bypassed bytes
//                    partition the secure-capable traffic per scope, and AES
//                    occupancy is paid iff the contract says so.
//   scheme.timing    serialization-shape micro-probe: a fresh controller per
//                    entry measures a secure line read against the plain
//                    baseline (passthrough = equal; AES-after-data strictly
//                    slower; pad-overlap hides AES behind DRAM on a counter
//                    hit, +1 XOR cycle).
//   scheme.oracle    known-plaintext cross-check: a pseudorandom plaintext
//                    image written and read back through sim::FunctionalMemory
//                    (real AES) under the entry's scheme; an
//                    `encrypted`-flagged transfer must not carry the
//                    plaintext, a plaintext-flagged one must carry exactly
//                    it — catches "the flag lied" bugs every flag-trusting
//                    rule is blind to.
//
// Every rule has a seeded violation (sealdl-sim --inject, verify/inject.hpp):
// a checker that never fires is indistinguishable from one that checks
// nothing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/gpu_config.hpp"
#include "sim/scheme_registry.hpp"
#include "sim/sim_stats.hpp"
#include "verify/analysis.hpp"
#include "verify/diagnostics.hpp"
#include "verify/taint.hpp"

namespace sealdl::verify {

/// Rule ids of the scheme.* family (for --list-rules and the catalog test).
[[nodiscard]] std::vector<std::string> scheme_rules();

/// What a scheme requires of a line's wire image.
enum class WirePolicy : std::uint8_t { kMustCipher, kMustPlain };

/// Plan-derived wire policy of one line under SEAL selective encryption:
/// weight rows follow the plan's protected set, fmap channels the consumer
/// rule, dense FC vectors the any-encrypted-feature-in-line rule, and the
/// network output buffer is always ciphertext. Judging the wire against the
/// *plan* (not the secure map) catches a map that drifted from it.
[[nodiscard]] WirePolicy plan_line_policy(const AnalysisInput& input,
                                          const Region& region,
                                          sim::Addr line_addr);

/// Post-run evidence one conformance pass consumes: the analyzer model of
/// the audited network, the run's taint ledger, and the summed SimStats of
/// every layer (carrying the controllers' metadata decomposition).
struct SchemeRunEvidence {
  const AnalysisInput* input = nullptr;  ///< regions + plan (borrowed)
  const TaintLedger* ledger = nullptr;   ///< run traffic (borrowed)
  sim::SimStats stats;                   ///< summed over the run's layers
  sim::GpuConfig config;                 ///< the config that ran
};

// --- static rules -----------------------------------------------------------

/// Validates a registry table (normally sim::scheme_registry(); injections
/// pass a corrupted copy).
void check_scheme_registry(std::span<const sim::SchemeInfo> entries,
                           Report& report);

/// Micro-probes `entry`'s secure read path through a fresh MemoryController
/// and holds the measured serialization against `claimed.read_shape`
/// (normally the entry's own contract; injections pass a falsified one).
void check_scheme_timing(const sim::SchemeInfo& entry,
                         const sim::SchemeContract& claimed, Report& report);

/// Writes a known plaintext image through a FunctionalMemory configured for
/// `entry` over `input`'s secure map — the first and last line of every
/// weight row and conv fmap channel, a capped stride scan of dense FC
/// vectors — reads it back with a taint probe attached, and cross-checks
/// every captured wire image against the plaintext. About a second per
/// entry at VGG-16/224, so run_scheme_conformance() leaves it out; sealdl-sim
/// --scheme-audit runs it. A weights-only entry (GuardNN) is transcribed
/// over an input built without a plan, whose secure map is empty, so its
/// transcript carries no secure line yet.
void check_scheme_oracle(const sim::SchemeInfo& entry,
                         const AnalysisInput& input, Report& report);

// --- post-run rules ---------------------------------------------------------

void check_scheme_wire(const sim::SchemeInfo& entry,
                       const SchemeRunEvidence& evidence, Report& report);
void check_scheme_boundary(const sim::SchemeInfo& entry,
                           const SchemeRunEvidence& evidence, Report& report);
void check_scheme_metadata(const sim::SchemeInfo& entry,
                           const SchemeRunEvidence& evidence, Report& report);
void check_scheme_coverage(const sim::SchemeInfo& entry,
                           const SchemeRunEvidence& evidence, Report& report);

/// Runs the scheme.* rules for one registered scheme over one run's
/// evidence: the registry and timing statics plus all four post-run clauses
/// (not the oracle transcript; see check_scheme_oracle).
[[nodiscard]] Report run_scheme_conformance(const sim::SchemeInfo& entry,
                                            const SchemeRunEvidence& evidence);

// --- seeded violations (sealdl-sim --inject) --------------------------------

/// Applies one kScheme* injection to copies of the entry/evidence and runs
/// the targeted checker; the returned report must contain the row's rules.
/// kSchemeWire/kSchemeBoundary need a scheme whose wire policy has a
/// must-cipher side (any entry except baseline). Throws
/// std::invalid_argument for rows of other families.
[[nodiscard]] Report run_scheme_injection(Injection injection,
                                          const sim::SchemeInfo& entry,
                                          const SchemeRunEvidence& evidence);

}  // namespace sealdl::verify
