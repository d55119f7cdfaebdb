// Pluggable rule families for sealdl-check.
//
// Each Checker validates one invariant family over an AnalysisInput and
// reports structured diagnostics. Rule ids are stable (docs/ANALYSIS.md):
//
//   plan.shape      per-layer row vectors sized and flagged consistently
//   plan.ratio      non-boundary layers meet the encryption-ratio floor
//   plan.boundary   boundary layers (head/tail policy) fully encrypted
//   plan.closure    fmap channel marking == consumer rule; output encrypted
//   plan.residual   identity-skip sources cover their consumer's rows
//   layout.weights  weight-row marking agrees with the plan
//   layout.align    secure range edges line-aligned in line-padded regions
//   layout.untagged secure ranges covered by known model regions
//   layout.bounds   secure ranges inside the allocated heap
//   layout.overlap  model regions pairwise disjoint
//   layout.account  layout-reported secure bytes == map secure bytes
//   trace.mixed     no COMPUTE pairs an encrypted weight row with a
//                   plaintext ifmap channel (the paper's §III-A invariant)
//   trace.bounds    trace addresses line-aligned and inside the heap
//   trace.wait      WaitLoads thresholds satisfiable (warning)
//   trace.order     output stores preceded by a full load barrier
//   trace.region    stores land in the layer's own output buffer (warning)
//
// The other rule families consume evidence an AnalysisInput alone does not
// carry — a bus-traffic ledger (scheme.*), a cycle profile (profile.*), a
// serving configuration or report (serve.options.*, fleet.*), the lock
// auditor (lock.*) — so their entry points validate them; rule_catalog()
// indexes all of them.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "verify/analysis.hpp"
#include "verify/diagnostics.hpp"

namespace sealdl::verify {

class Checker {
 public:
  virtual ~Checker() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Rule ids this checker can emit.
  [[nodiscard]] virtual std::vector<std::string> rules() const = 0;
  virtual void run(const AnalysisInput& input, Report& report) const = 0;
};

/// Knobs for the trace linter (the only checker that generates work).
struct TraceCheckOptions {
  /// Warps worth of programs generated per layer.
  int num_warps = 12;
  /// Tile cap per layer; one CONV tile already walks every input channel, so
  /// a small stratified sample still covers every (row, channel) pair.
  std::uint64_t max_tiles = 24;
};

std::vector<std::unique_ptr<Checker>> make_plan_checkers();
std::vector<std::unique_ptr<Checker>> make_layout_checkers();
std::unique_ptr<Checker> make_trace_checker(const TraceCheckOptions& options = {});

/// The full default suite, in plan -> layout -> trace order.
std::vector<std::unique_ptr<Checker>> default_checkers(
    const TraceCheckOptions& trace_options = {});

/// Runs every checker over `input` into one report.
Report run_checkers(const AnalysisInput& input,
                    const std::vector<std::unique_ptr<Checker>>& checkers,
                    std::size_t max_per_rule = 16);

/// One catalog row: a rule id and the entry point that validates it.
struct CatalogRule {
  std::string id;
  std::string validator;
};

/// Every rule id of every family — the single index `sealdl-check
/// --list-rules`, docs/ANALYSIS.md and the injection table are held against.
[[nodiscard]] std::vector<CatalogRule> rule_catalog();

}  // namespace sealdl::verify
