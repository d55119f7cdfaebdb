// The static analyzer (sealdl-check): clean pipelines must pass, every rule
// must fire under its seeded violation, a hand-corrupted plan (dropped
// channel propagation) must be caught at both the plan and the trace level,
// and the injection table must stay consistent with the rule catalog.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "models/layer_spec.hpp"
#include "verify/analysis.hpp"
#include "verify/checker.hpp"
#include "verify/diagnostics.hpp"
#include "verify/inject.hpp"

namespace sealdl::verify {
namespace {

// Small inputs keep the trace walk fast; the full-scale 224 sweep runs via
// the sealdl-check ctest entries in tools/CMakeLists.txt.
constexpr int kInputHw = 64;
TraceCheckOptions fast_trace() { return {.num_warps = 4, .max_tiles = 8}; }

Report check(const std::vector<models::LayerSpec>& specs, BuildOptions options) {
  const AnalysisInput input = build_input(specs, options);
  return run_checkers(input, default_checkers(fast_trace()));
}

// ---------------------------------------------------------------- clean ---

TEST(VerifyClean, NetworksPassAcrossRatios) {
  const struct {
    const char* name;
    std::vector<models::LayerSpec> specs;
  } nets[] = {{"vgg16", models::vgg16_specs(kInputHw)},
              {"resnet18", models::resnet18_specs(kInputHw)},
              {"resnet34", models::resnet34_specs(kInputHw)}};
  for (const auto& net : nets) {
    for (const double ratio : {0.0, 0.4, 0.5, 1.0}) {
      BuildOptions options;
      options.plan.encryption_ratio = ratio;
      const Report report = check(net.specs, options);
      EXPECT_EQ(report.error_count(), 0u)
          << net.name << " ratio " << ratio << "\n"
          << report.to_text();
    }
  }
}

TEST(VerifyClean, BaselinePassesWithEmptyMap) {
  BuildOptions options;
  options.selective = false;
  const AnalysisInput input = build_input(models::vgg16_specs(kInputHw), options);
  EXPECT_EQ(input.heap.secure_map().secure_bytes(), 0u);
  const Report report = run_checkers(input, default_checkers(fast_trace()));
  EXPECT_EQ(report.error_count(), 0u) << report.to_text();
}

TEST(VerifyClean, SeedConvToFcSeamIsWarningNotError) {
  // The generators store conv/pool outputs with channel-pitch striding even
  // when the next consumer is a dense FC vector: the stores stay inside the
  // heap (trace.bounds clean) but land outside the FC input region
  // (trace.region warns). This pins the seed behavior so a future layout fix
  // shows up as this expectation flipping, not as a silent change.
  BuildOptions options;
  const Report report = check(models::vgg16_specs(kInputHw), options);
  EXPECT_EQ(report.count("trace.bounds"), 0u);
  EXPECT_GT(report.count("trace.region"), 0u);
}

// ----------------------------------------------------------- injections ---

TEST(VerifyInject, EveryRuleFires) {
  // ResNet-18 has the residual topology, so every sealdl-check row applies.
  const auto specs = models::resnet18_specs(kInputHw);
  for (const InjectionInfo& row : injection_table()) {
    if (row.tool != InjectTool::kCheck) continue;
    BuildOptions options;
    options.inject = row.id;
    const AnalysisInput input = build_input(specs, options);
    const Report report = run_checkers(input, default_checkers(fast_trace()));
    for (const std::string& rule : row.fires) {
      EXPECT_TRUE(report.fired(rule))
          << row.name << " did not fire " << rule << "\n"
          << report.to_text();
    }
  }
}

TEST(VerifyInject, ResidualRequiresTopology) {
  BuildOptions options;
  options.inject = Injection::kPlanResidual;
  // VGG has no identity blocks: the injection cannot be staged.
  EXPECT_THROW(build_input(models::vgg16_specs(kInputHw), options),
               std::invalid_argument);
}

TEST(VerifyInject, FullEncryptionLeavesNoPlainRowToCorrupt) {
  BuildOptions options;
  options.plan.encryption_ratio = 1.0;
  options.inject = Injection::kLayoutAlign;
  EXPECT_THROW(build_input(models::vgg16_specs(kInputHw), options),
               std::invalid_argument);
}

TEST(VerifyInject, CorruptedPlanCaughtAtPlanAndTraceLevel) {
  // The integration scenario from the paper's invariant: a refactor loses
  // one layer's channel propagation (fmap channel stays plaintext while its
  // kernel row is encrypted). Both the closure rule and the trace-level
  // mixed-operand rule must catch it.
  BuildOptions options;
  AnalysisInput input = build_input(models::vgg16_specs(kInputHw), options);
  ASSERT_TRUE(input.plan.has_value());
  // Find an encrypted channel of a conv fmap and drop its marking by hand.
  bool corrupted = false;
  const auto& layers = input.layout->layers();
  for (std::size_t i = 0; i < input.specs.size() && !corrupted; ++i) {
    if (input.specs[i].type != models::LayerSpec::Type::kConv) continue;
    const int cp = input.layout->consumer_plan_index(i);
    if (cp < 0) continue;
    const auto& lp = input.plan->layer(static_cast<std::size_t>(cp));
    for (int c = 0; c < std::min(layers[i].ifmap_channels, lp.rows); ++c) {
      if (!row_encrypted_safe(lp, c)) continue;
      input.heap.unmark_secure(
          layers[i].ifmap_base +
              static_cast<std::uint64_t>(c) * layers[i].ifmap_channel_pitch,
          layers[i].ifmap_channel_pitch);
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  const Report report = run_checkers(input, default_checkers(fast_trace()));
  EXPECT_TRUE(report.fired("plan.closure")) << report.to_text();
  EXPECT_TRUE(report.fired("trace.mixed")) << report.to_text();
}

// ------------------------------------------------------------- topology ---

// (source, closing conv) pairs of every declared identity skip.
std::vector<std::pair<std::size_t, std::size_t>> declared_skips(
    const std::vector<models::LayerSpec>& specs) {
  std::vector<std::pair<std::size_t, std::size_t>> skips;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].skip_from >= 0) {
      skips.emplace_back(static_cast<std::size_t>(specs[i].skip_from), i);
    }
  }
  return skips;
}

TEST(VerifyTopology, DeclaredSkipsPrecedeANonPoolConsumer) {
  const struct {
    const char* name;
    std::vector<models::LayerSpec> specs;
    std::size_t skips;
  } nets[] = {{"vgg16", models::vgg16_specs(kInputHw), 0},
              {"resnet18", models::resnet18_specs(kInputHw), 5},
              {"resnet34", models::resnet34_specs(kInputHw), 13}};
  for (const auto& net : nets) {
    const auto skips = declared_skips(net.specs);
    EXPECT_EQ(skips.size(), net.skips) << net.name;
    for (const auto& [source, closing] : skips) {
      EXPECT_LT(source, closing) << net.name;
      EXPECT_EQ(net.specs[source].type, models::LayerSpec::Type::kConv);
      EXPECT_EQ(net.specs[closing].type, models::LayerSpec::Type::kConv);
      std::size_t consumer = closing + 1;
      while (consumer < net.specs.size() &&
             net.specs[consumer].type == models::LayerSpec::Type::kPool) {
        ++consumer;
      }
      EXPECT_LT(consumer, net.specs.size()) << net.specs[closing].name;
    }
  }
}

TEST(VerifyTopology, RenamedLayersKeepTheirSkips) {
  // Topology is declared, not parsed from names: relabelling every layer
  // keeps every skip, and plan.residual still catches a broken union.
  const auto specs = models::resnet18_specs(kInputHw);
  auto renamed = specs;
  for (std::size_t i = 0; i < renamed.size(); ++i) {
    renamed[i].name = "layer" + std::to_string(i) + "_conv" + std::to_string(i % 2 + 1);
  }
  EXPECT_EQ(declared_skips(renamed), declared_skips(specs));

  BuildOptions options;
  options.inject = Injection::kPlanResidual;
  const Report report = check(renamed, options);
  EXPECT_TRUE(report.fired("plan.residual")) << report.to_text();
}

TEST(VerifyTopology, SkipFromMustNameAnEarlierConv) {
  const auto specs = models::resnet18_specs(kInputHw);
  const auto skips = declared_skips(specs);
  ASSERT_FALSE(skips.empty());
  const std::size_t closing = skips.front().second;
  std::size_t pool = 0;
  while (specs[pool].type != models::LayerSpec::Type::kPool) ++pool;
  ASSERT_LT(pool, closing);
  for (const int bad : {static_cast<int>(closing), static_cast<int>(closing) + 1,
                        static_cast<int>(pool), -2}) {
    auto broken = specs;
    broken[closing].skip_from = bad;
    EXPECT_THROW(build_input(broken, BuildOptions{}), std::invalid_argument)
        << "skip_from " << bad;
  }
}

// ---------------------------------------------------------------- report ---

TEST(VerifyReport, CountsStayExactPastStorageCap) {
  Report report(/*max_per_rule=*/2);
  for (int i = 0; i < 5; ++i) {
    report.add({"plan.closure", Severity::kError, "conv1", 0, 0, "x"});
  }
  report.add({"trace.wait", Severity::kWarning, "", 0, 0, "y"});
  EXPECT_EQ(report.count("plan.closure"), 5u);
  EXPECT_EQ(report.error_count(), 5u);
  EXPECT_EQ(report.warning_count(), 1u);
  EXPECT_EQ(report.diagnostics().size(), 3u);  // 2 stored + the warning
  EXPECT_TRUE(report.fired("trace.wait"));
  EXPECT_FALSE(report.fired("layout.bounds"));
}

TEST(VerifyReport, TextAndJsonRenderings) {
  Report report;
  report.add({"layout.bounds", Severity::kError, "conv2_1", 0x100, 0x200, "oops"});
  const std::string text = report.to_text();
  EXPECT_NE(text.find("layout.bounds"), std::string::npos);
  EXPECT_NE(text.find("conv2_1"), std::string::npos);

  util::JsonWriter json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"layout.bounds\""), std::string::npos);
  EXPECT_NE(json.str().find("\"errors\""), std::string::npos);
}

// ------------------------------------------------------ injection table ---

TEST(InjectionTable, NamesUniqueAndRulesCataloged) {
  std::set<std::string> catalog;
  for (const CatalogRule& rule : rule_catalog()) catalog.insert(rule.id);
  std::set<std::string> names;
  for (const InjectionInfo& row : injection_table()) {
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate " << row.name;
    EXPECT_NE(row.id, Injection::kNone);
    EXPECT_EQ(&injection_info(row.id), &row) << row.name;
    EXPECT_FALSE(row.fires.empty()) << row.name;
    for (const std::string& rule : row.fires) {
      EXPECT_EQ(catalog.count(rule), 1u) << row.name << " fires " << rule;
    }
  }
}

TEST(InjectionTable, EachRowNamesExactlyOneTool) {
  std::map<InjectTool, std::size_t> rows;
  for (const InjectionInfo& row : injection_table()) {
    // The selector of the row's own tool finds it; no other tool's does.
    for (const InjectTool tool :
         {InjectTool::kCheck, InjectTool::kSim, InjectTool::kServe}) {
      if (tool == row.tool) {
        EXPECT_EQ(select_injections(tool, row.name),
                  std::vector<Injection>{row.id});
      } else {
        EXPECT_THROW((void)select_injections(tool, row.name),
                     std::invalid_argument)
            << row.name << " leaks into " << inject_tool_name(tool);
      }
    }
    ++rows[row.tool];
  }
  EXPECT_EQ(rows[InjectTool::kCheck], 16u);
  EXPECT_EQ(rows[InjectTool::kSim], 9u);
  EXPECT_EQ(rows[InjectTool::kServe], 4u);
  EXPECT_EQ(select_injections(InjectTool::kSim, "all").size(), 9u);
  EXPECT_THROW((void)select_injections(InjectTool::kCheck, "no-such-injection"),
               std::invalid_argument);
}

}  // namespace
}  // namespace sealdl::verify
