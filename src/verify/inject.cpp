#include "verify/inject.hpp"

#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "telemetry/report.hpp"
#include "util/json.hpp"

namespace sealdl::verify {

namespace {

constexpr InjectTool kCheck = InjectTool::kCheck;
constexpr InjectTool kSim = InjectTool::kSim;
constexpr InjectTool kServe = InjectTool::kServe;

/// Per-row outcome for the ledger.
struct Outcome {
  const char* name;
  const char* status;  ///< "caught", "missed" or "skipped"
  std::string reason;  ///< only for "skipped"
  std::uint64_t errors = 0;
  std::uint64_t warnings = 0;
};

void write_ledger(const std::string& path, InjectTool tool,
                  const std::string& selector, const std::string& subject,
                  const std::vector<Outcome>& outcomes, std::uint64_t exercised,
                  std::uint64_t skipped, std::uint64_t missed) {
  util::JsonWriter json;
  json.begin_object();
  json.field("tool", inject_tool_name(tool));
  json.field("schema_version", 1);
  json.field("mode", "inject");
  json.field("inject", selector);
  json.field("subject", subject);
  json.field("total", static_cast<std::uint64_t>(outcomes.size()));
  json.field("exercised", exercised);
  json.field("skipped", skipped);
  json.field("missed", missed);
  json.key("injections");
  json.begin_array();
  for (const Outcome& o : outcomes) {
    json.begin_object();
    json.field("name", o.name);
    json.field("status", o.status);
    if (o.reason.empty()) {
      json.field("errors", o.errors);
      json.field("warnings", o.warnings);
    } else {
      json.field("reason", o.reason);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  telemetry::write_text_file(path, json.str());
}

}  // namespace

const char* inject_tool_name(InjectTool tool) {
  switch (tool) {
    case InjectTool::kCheck: return "sealdl-check";
    case InjectTool::kSim: return "sealdl-sim";
    case InjectTool::kServe: return "sealdl-serve";
  }
  return "?";
}

const std::vector<InjectionInfo>& injection_table() {
  static const std::vector<InjectionInfo> kTable = {
      {Injection::kPlanShape, "plan-shape", {"plan.shape"}, kCheck},
      {Injection::kPlanRatio, "plan-ratio", {"plan.ratio"}, kCheck},
      {Injection::kPlanBoundary, "plan-boundary", {"plan.boundary"}, kCheck},
      {Injection::kPlanClosure, "plan-closure", {"plan.closure"}, kCheck},
      {Injection::kPlanResidual, "plan-residual", {"plan.residual"}, kCheck},
      {Injection::kLayoutWeights, "layout-weights", {"layout.weights"}, kCheck},
      {Injection::kLayoutAlign, "layout-align", {"layout.align"}, kCheck},
      {Injection::kLayoutUntagged, "layout-untagged", {"layout.untagged"}, kCheck},
      {Injection::kLayoutBounds, "layout-bounds", {"layout.bounds"}, kCheck},
      {Injection::kLayoutOverlap, "layout-overlap", {"layout.overlap"}, kCheck},
      {Injection::kLayoutAccount, "layout-account", {"layout.account"}, kCheck},
      {Injection::kTraceMixed, "trace-mixed", {"trace.mixed"}, kCheck},
      {Injection::kTraceBounds, "trace-bounds", {"trace.bounds"}, kCheck},
      {Injection::kTraceWait, "trace-wait", {"trace.wait"}, kCheck},
      {Injection::kTraceOrder, "trace-order", {"trace.order"}, kCheck},
      {Injection::kTraceRegion, "trace-region", {"trace.region"}, kCheck},
      {Injection::kSchemeWire, "scheme-wire", {"scheme.wire"}, kSim},
      {Injection::kSchemeBoundary, "scheme-boundary", {"scheme.boundary"}, kSim},
      {Injection::kSchemeMetadata, "scheme-metadata", {"scheme.metadata"}, kSim},
      {Injection::kSchemeCoverage, "scheme-coverage", {"scheme.coverage"}, kSim},
      {Injection::kSchemeTiming, "scheme-timing", {"scheme.timing"}, kSim},
      {Injection::kSchemeRegistry, "scheme-registry", {"scheme.registry"}, kSim},
      {Injection::kSchemeOracle, "scheme-oracle", {"scheme.oracle"}, kSim},
      {Injection::kProfileConservation, "profile-conservation",
       {"profile.conservation"}, kSim},
      {Injection::kProfileTotal, "profile-total", {"profile.total"}, kSim},
      {Injection::kFleetRequests, "fleet-requests", {"fleet.requests"}, kServe},
      {Injection::kFleetBatches, "fleet-batches", {"fleet.batches"}, kServe},
      {Injection::kFleetStages, "fleet-stages", {"fleet.stages"}, kServe},
      {Injection::kFleetDevices, "fleet-devices", {"fleet.devices"}, kServe},
  };
  return kTable;
}

const InjectionInfo& injection_info(Injection injection) {
  for (const InjectionInfo& row : injection_table()) {
    if (row.id == injection) return row;
  }
  static const InjectionInfo kNoneRow = {Injection::kNone, "none", {}, kCheck};
  return kNoneRow;
}

const char* injection_name(Injection injection) {
  return injection_info(injection).name;
}

std::vector<Injection> select_injections(InjectTool tool,
                                         const std::string& selector) {
  std::vector<Injection> selected;
  std::string names = "all";
  for (const InjectionInfo& row : injection_table()) {
    if (row.tool != tool) continue;
    names += '|';
    names += row.name;
    if (selector == "all" || selector == row.name) selected.push_back(row.id);
  }
  if (selected.empty()) {
    throw std::invalid_argument("unknown --inject " + selector + " (" + names +
                                ")");
  }
  return selected;
}

int run_injections(InjectTool tool, const std::string& selector,
                   const std::string& subject,
                   const std::function<StagedInjection(Injection)>& stage,
                   const std::string& json_path) {
  std::vector<Outcome> outcomes;
  std::uint64_t exercised = 0, skipped = 0, missed = 0;
  for (const Injection injection : select_injections(tool, selector)) {
    const InjectionInfo& row = injection_info(injection);
    StagedInjection staged = stage(injection);
    Outcome outcome{row.name, "caught", std::move(staged.skipped)};
    if (!outcome.reason.empty()) {
      outcome.status = "skipped";
      std::printf("skip    %-20s (%s)\n", row.name, outcome.reason.c_str());
      ++skipped;
      outcomes.push_back(std::move(outcome));
      continue;
    }
    ++exercised;
    outcome.errors = staged.report.error_count();
    outcome.warnings = staged.report.warning_count();
    bool caught = true;
    for (const std::string& rule : row.fires) {
      if (!staged.report.fired(rule)) {
        std::printf("MISSED  %-20s rule %s did not fire\n", row.name,
                    rule.c_str());
        caught = false;
      }
    }
    if (caught) {
      std::printf("caught  %-20s (%llu errors, %llu warnings)\n", row.name,
                  static_cast<unsigned long long>(outcome.errors),
                  static_cast<unsigned long long>(outcome.warnings));
    } else {
      outcome.status = "missed";
      ++missed;
    }
    outcomes.push_back(std::move(outcome));
  }
  std::printf("%s %s: %llu injections exercised, %llu skipped, %zu total, %s\n",
              inject_tool_name(tool), subject.c_str(),
              static_cast<unsigned long long>(exercised),
              static_cast<unsigned long long>(skipped), outcomes.size(),
              missed == 0 ? "all caught" : "SOME MISSED");
  if (!json_path.empty()) {
    write_ledger(json_path, tool, selector, subject, outcomes, exercised,
                 skipped, missed);
  }
  return missed == 0 ? 0 : 1;
}

}  // namespace sealdl::verify
