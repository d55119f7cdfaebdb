// Invariant checks over cycle-attribution profiles — the `profile.*` rule
// family.
//
// The profiler (telemetry/profiler.hpp) claims an exact partition: every
// simulated cycle of every component lands in exactly one bucket. These
// rules prove it on the emitted data, so a future attribution bug (a span
// double-counted, a drain tail dropped) fails loudly instead of producing a
// quietly-wrong flamegraph. sealdl-sim runs them on every profiled run, and
// its --inject profile-conservation|profile-total rows seed violations that
// must be caught (verify/inject.hpp). Rule catalog
// (docs/ANALYSIS.md):
//
//   profile.conservation   per-component buckets sum exactly to the
//                          component's total profiled cycles
//   profile.total          every component of a layer agrees on the layer's
//                          total cycle count
//   profile.serve.stages   serve lifecycle stages sum to the measured
//                          end-to-end latency (completed requests)
#pragma once

#include <string>
#include <vector>

#include "telemetry/profiler.hpp"
#include "verify/diagnostics.hpp"

namespace sealdl::verify {

/// Rule ids the family can emit, in catalog order (for --list-rules).
std::vector<std::string> profile_rules();

/// Appends one error diagnostic per violated conservation/total rule.
void check_cycle_profile(const telemetry::CycleProfile& profile,
                         Report& report);

/// Checks the serve-side reconciliation: the summed stage cycles of all
/// completed requests must equal the summed end-to-end latency cycles
/// (relative tolerance covers double accumulation order, nothing more).
void check_serve_stage_totals(double stage_cycles_sum,
                              double latency_cycles_sum, Report& report);

/// Convenience wrapper returning a fresh report.
[[nodiscard]] Report run_profile_check(const telemetry::CycleProfile& profile);

}  // namespace sealdl::verify
