#include "verify/checker.hpp"

#include "verify/concurrency.hpp"
#include "verify/fleet_checkers.hpp"
#include "verify/profile_checkers.hpp"
#include "verify/scheme_checkers.hpp"
#include "verify/serve_checkers.hpp"

namespace sealdl::verify {

std::vector<std::unique_ptr<Checker>> default_checkers(
    const TraceCheckOptions& trace_options) {
  auto checkers = make_plan_checkers();
  for (auto& checker : make_layout_checkers()) {
    checkers.push_back(std::move(checker));
  }
  checkers.push_back(make_trace_checker(trace_options));
  return checkers;
}

Report run_checkers(const AnalysisInput& input,
                    const std::vector<std::unique_ptr<Checker>>& checkers,
                    std::size_t max_per_rule) {
  Report report(max_per_rule);
  for (const auto& checker : checkers) checker->run(input, report);
  return report;
}

std::vector<CatalogRule> rule_catalog() {
  std::vector<CatalogRule> catalog;
  for (const auto& checker : default_checkers()) {
    for (const std::string& rule : checker->rules()) {
      catalog.push_back({rule, "checker: " + std::string(checker->name())});
    }
  }
  const auto add_family = [&catalog](const std::vector<std::string>& rules,
                                     const char* validator) {
    for (const std::string& rule : rules) catalog.push_back({rule, validator});
  };
  add_family(serve_option_rules(), "validated by sealdl-serve");
  add_family(fleet_rules(), "validated by sealdl-serve");
  add_family(profile_rules(), "validated by sealdl-sim/sealdl-serve");
  add_family(scheme_rules(), "scheme conformance: sealdl-sim --scheme-audit");
  add_family(lock_audit_rules(), "runtime lock auditor, SEALDL_LOCK_AUDIT");
  return catalog;
}

}  // namespace sealdl::verify
