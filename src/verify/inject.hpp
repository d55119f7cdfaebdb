// Seeded-violation self-tests: one injection table for every tool.
//
// A checker that never fires is indistinguishable from one that checks
// nothing, so every rule has at least one injection: a deliberate, minimal
// corruption that must make the rule report. Each row of the table names the
// injection, the rules it is guaranteed to fire, and the one tool that can
// stage it — sealdl-check corrupts the plan / secure map / analyzer model /
// trace stream, sealdl-sim the evidence of a live audited and profiled run,
// sealdl-serve a finished fleet report. Every tool exposes its rows through
// the same `--inject <name|all>` flag and accounts for them with
// run_injections(); tests and CI assert the contract.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "verify/diagnostics.hpp"

namespace sealdl::verify {

enum class Injection {
  kNone,
  // sealdl-check: staged by build_input() and the trace walker.
  kPlanShape,      ///< truncate a layer's encrypted_rows vector
  kPlanRatio,      ///< strip encryption from a non-boundary layer
  kPlanBoundary,   ///< strip encryption from a boundary layer
  kPlanClosure,    ///< un-mark one encrypted fmap channel (dropped propagation)
  kPlanResidual,   ///< swap an encrypted row out of a residual block's plan
  kLayoutWeights,  ///< un-mark one encrypted weight row
  kLayoutAlign,    ///< mark an unaligned secure sub-range in a weight region
  kLayoutUntagged, ///< forget a region, orphaning its secure ranges
  kLayoutBounds,   ///< mark a secure range beyond the allocated heap
  kLayoutOverlap,  ///< stretch one model region over its neighbour
  kLayoutAccount,  ///< add an aligned stray secure line inside a plain row
  kTraceMixed,     ///< alias of kPlanClosure seen from the trace side
  kTraceBounds,    ///< rewrite some trace loads to out-of-heap addresses
  kTraceWait,      ///< raise a WaitLoads threshold beyond any possible depth
  kTraceOrder,     ///< drop the WaitLoads barriers before output stores
  kTraceRegion,    ///< shift output stores into a foreign region
  // sealdl-sim: staged by run_scheme_injection() over a clean run's evidence.
  kSchemeWire,      ///< record plaintext bytes on a must-cipher line
  kSchemeBoundary,  ///< record plaintext bytes inside a protected weight row
  kSchemeMetadata,  ///< perturb the controllers' counter-traffic accounting
  kSchemeCoverage,  ///< claim one encrypted byte the controllers never saw
  kSchemeTiming,    ///< claim the other family's serialization shape
  kSchemeRegistry,  ///< duplicate a CLI name in a copy of the registry table
  kSchemeOracle,    ///< forge a capture whose encrypted flag lies about the wire
  // sealdl-sim: staged on a copy of the run's cycle profile.
  kProfileConservation,  ///< bump one bucket: buckets no longer sum to total
  kProfileTotal,         ///< bump one component's bucket and total together
  // sealdl-serve: staged on a copy of the finished fleet report.
  kFleetRequests,  ///< one phantom completion on a device
  kFleetBatches,   ///< one phantom batch on a device
  kFleetStages,    ///< inflate the summed per-stage cycles
  kFleetDevices,   ///< mis-index a device entry
};

/// The tool that stages an injection.
enum class InjectTool { kCheck, kSim, kServe };

/// "sealdl-check" | "sealdl-sim" | "sealdl-serve".
[[nodiscard]] const char* inject_tool_name(InjectTool tool);

/// One table row.
struct InjectionInfo {
  Injection id;
  const char* name;                ///< CLI name, e.g. "plan-closure"
  std::vector<std::string> fires;  ///< rule ids it is guaranteed to fire
  InjectTool tool;
};

/// Every injection, grouped by tool in declaration order (excludes kNone).
[[nodiscard]] const std::vector<InjectionInfo>& injection_table();

/// The row of `injection`; kNone maps to a row named "none" firing nothing.
[[nodiscard]] const InjectionInfo& injection_info(Injection injection);

[[nodiscard]] const char* injection_name(Injection injection);

/// Resolves `--inject <selector>` for one tool: "all" is that tool's rows in
/// table order, a row name is that row alone. Throws std::invalid_argument,
/// listing the tool's rows, for anything else.
[[nodiscard]] std::vector<Injection> select_injections(InjectTool tool,
                                                       const std::string& selector);

/// What staging one injection produced: the report of the checkers it
/// targets, or — when the run offers nothing to corrupt — a skip reason.
struct StagedInjection {
  Report report;
  std::string skipped;  ///< non-empty = not exercised, with the reason
};

/// Stages each selected injection through `stage`, prints one
/// caught/MISSED/skip line per row plus a summary, and writes the ledger
/// (exercised + skipped == total, missed) to `json_path` when non-empty.
/// `subject` labels the run (workload, and scheme where the tool has one).
/// Returns the exit code: 0 iff every exercised row fired all its rules.
int run_injections(InjectTool tool, const std::string& selector,
                   const std::string& subject,
                   const std::function<StagedInjection(Injection)>& stage,
                   const std::string& json_path);

}  // namespace sealdl::verify
