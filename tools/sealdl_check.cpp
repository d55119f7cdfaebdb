// sealdl-check: static invariant analyzer for SEAL encryption plans, memory
// layouts and generated warp traces. No cycle simulation is involved: the
// tool rebuilds the exact plan/layout pipeline the runner uses and proves the
// invariants over it (see docs/ANALYSIS.md for the rule catalog):
//
//   sealdl-check --workload vgg16 --ratio 0.5
//   sealdl-check --workload resnet18 --ratio 0.4 --json report.json
//   sealdl-check --workload resnet34 --inject all   # every rule must fire
//   sealdl-check --list-rules [--json catalog.json]
//
// --inject <name|all> stages this tool's rows of the injection table
// (verify/inject.hpp: the plan-*, layout-* and trace-* corruptions) and
// demands each fires its rules; --json then writes the injection ledger
// instead of the report. The bus-level scheme.* proofs run on live traffic
// in sealdl-sim --scheme-audit.
//
// Exit codes: 0 = clean (or every injected violation was caught),
// 1 = findings (or an injection went undetected), 2 = usage error.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/build.hpp"
#include "telemetry/report.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "verify/checker.hpp"
#include "verify/inject.hpp"

using namespace sealdl;

namespace {

core::RowPolicy parse_policy(const std::string& name) {
  if (name == "smallest") return core::RowPolicy::kSmallestL1Plain;
  if (name == "random") return core::RowPolicy::kRandomPlain;
  if (name == "largest") return core::RowPolicy::kLargestL1Plain;
  throw std::invalid_argument("unknown --policy " + name +
                              " (smallest|random|largest)");
}

void list_rules() {
  for (const verify::CatalogRule& rule : verify::rule_catalog()) {
    std::printf("%-16s (%s)\n", rule.id.c_str(), rule.validator.c_str());
  }
  std::printf("\ninjections (<tool> --inject <name>|all):\n");
  for (const verify::InjectionInfo& row : verify::injection_table()) {
    std::string rules;
    for (const std::string& rule : row.fires) {
      if (!rules.empty()) rules += ", ";
      rules += rule;
    }
    std::printf("%-20s %-12s fires: %s\n", row.name,
                verify::inject_tool_name(row.tool), rules.c_str());
  }
}

/// Machine-readable catalog (--list-rules --json <path>): what the cmake
/// drift gate consumes instead of scraping the text listing.
void write_json_catalog(const std::string& path) {
  util::JsonWriter json;
  json.begin_object();
  json.field("tool", "sealdl-check");
  json.field("schema_version", 1);
  json.field("mode", "rule-catalog");
  json.key("rules");
  json.begin_array();
  for (const verify::CatalogRule& rule : verify::rule_catalog()) {
    json.begin_object();
    json.field("id", rule.id);
    json.field("validator", rule.validator);
    json.end_object();
  }
  json.end_array();
  json.key("injections");
  json.begin_array();
  for (const verify::InjectionInfo& row : verify::injection_table()) {
    json.begin_object();
    json.field("name", row.name);
    json.field("tool", verify::inject_tool_name(row.tool));
    json.key("fires");
    json.begin_array();
    for (const std::string& rule : row.fires) json.value(rule);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  telemetry::write_text_file(path, json.str());
}

void write_json_report(const std::string& path, const std::string& workload,
                       const verify::BuildOptions& options,
                       const verify::Report& report) {
  util::JsonWriter json;
  json.begin_object();
  json.field("tool", "sealdl-check");
  json.field("schema_version", 1);
  json.field("workload", workload);
  json.field("selective", options.selective);
  json.field("encryption_ratio", options.plan.encryption_ratio);
  json.key("report");
  report.write_json(json);
  json.end_object();
  telemetry::write_text_file(path, json.str());
}

/// Stages one plan/layout/trace injection: rebuilds the analysis model
/// with the corruption applied and runs the full checker suite over it.
verify::StagedInjection stage_injection(
    const std::vector<models::LayerSpec>& specs, verify::BuildOptions options,
    const verify::TraceCheckOptions& trace_options,
    const std::string& workload, verify::Injection injection) {
  if (injection == verify::Injection::kPlanResidual &&
      std::ranges::none_of(specs, [](const auto& spec) { return spec.skip_from >= 0; })) {
    return {verify::Report(), "no residual topology in " + workload};
  }
  options.inject = injection;
  const verify::AnalysisInput input = verify::build_input(specs, options);
  return {verify::run_checkers(input, verify::default_checkers(trace_options)),
          ""};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::CliFlags flags(argc, argv);

    if (flags.get_bool("list-rules", false)) {
      const std::string catalog_json = flags.get("json", "");
      list_rules();
      if (!catalog_json.empty()) write_json_catalog(catalog_json);
      return 0;
    }

    const std::string workload = flags.get("workload", "vgg16");
    const int input_hw = static_cast<int>(flags.get_int("input", 224));
    verify::BuildOptions options;
    options.plan.encryption_ratio = flags.get_double("ratio", 0.5);
    options.plan.policy = parse_policy(flags.get("policy", "smallest"));
    options.plan.random_seed =
        static_cast<std::uint64_t>(flags.get_int("seed", 11));
    options.selective = !flags.get_bool("baseline", false);

    verify::TraceCheckOptions trace_options;
    const std::uint64_t warps = flags.get_uint("warps", 12);
    if (warps == 0 || warps > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      // Zero warps would generate no trace at all and pass every trace.* rule.
      throw std::invalid_argument("--warps: expected a positive warp count, got " +
                                  std::to_string(warps));
    }
    trace_options.num_warps = static_cast<int>(warps);
    trace_options.max_tiles = flags.get_uint("tiles", 24);

    const std::string inject_name = flags.get("inject", "");
    const std::string json_path = flags.get("json", "");
    const bool strict = flags.get_bool("strict", false);

    flags.reject_unknown();

    const std::vector<models::LayerSpec> specs =
        models::network_specs(workload, input_hw);

    if (!inject_name.empty()) {
      return verify::run_injections(
          verify::InjectTool::kCheck, inject_name, workload,
          [&](verify::Injection injection) {
            return stage_injection(specs, options, trace_options, workload,
                                   injection);
          },
          json_path);
    }

    const verify::AnalysisInput input = verify::build_input(specs, options);
    const verify::Report report =
        verify::run_checkers(input, verify::default_checkers(trace_options));
    std::printf("%s", report.to_text().c_str());
    if (!json_path.empty()) {
      write_json_report(json_path, workload, options, report);
    }
    const bool fail =
        report.error_count() > 0 || (strict && report.warning_count() > 0);
    return fail ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sealdl-check: %s\n", e.what());
    return 2;
  }
}
