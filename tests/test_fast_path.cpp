// Golden equivalence suite for the simulator's event-skipping fast path.
//
// The fast run loop (skip provably-no-op SM ticks, batch-advance
// state-constant idle spans) must be *bitwise*-identical to the naive
// reference loop kept behind --no-fast-path / RunOptions::fast_path=false:
// per-layer stats, the metrics registry document, the cycle-attribution
// profile document, the taint ledger digest, and the whole-network cycle
// checksum, across three networks x five schemes x two encryption ratios.
//
// Deliberately NOT compared: the interval-sampler time series. The sampler
// records at *visited* cycles, and the two loops visit different cycle sets
// (that is the entire point of the fast path), so these suites run with the
// sampler disabled — the one observable the contract excludes (see
// GpuSimulator::set_fast_path).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "models/layer_spec.hpp"
#include "sim/scheme_registry.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "verify/profile_checkers.hpp"
#include "verify/taint.hpp"
#include "workload/network_runner.hpp"

namespace sealdl::workload {
namespace {

// Small but complete: every layer of every network simulates (capped tiles),
// so both loops cover CONV/POOL/FC, all launch staggers, and the memory-bound
// phases where the fast path actually jumps.
constexpr int kInput = 32;
constexpr std::uint64_t kTiles = 16;

std::vector<models::LayerSpec> specs_for(const std::string& net) {
  if (net == "vgg16") return models::vgg16_specs(kInput);
  if (net == "resnet18") return models::resnet18_specs(kInput);
  return models::resnet34_specs(kInput);
}

struct SchemeCase {
  const char* name;    ///< test-name spelling
  const char* scheme;  ///< registry CLI name
};

constexpr SchemeCase kSchemes[] = {
    {"baseline", "baseline"}, {"direct", "direct"}, {"counter", "counter"},
    {"seal_d", "seal-d"},     {"seal_c", "seal-c"},
};

struct PathRun {
  NetworkResult result;
  std::unique_ptr<telemetry::RunTelemetry> telemetry;
  std::unique_ptr<verify::AnalysisInput> input;  ///< stable for the auditor
  std::unique_ptr<verify::TaintAuditor> auditor;
};

PathRun run_path(const std::vector<models::LayerSpec>& specs,
                 const SchemeCase& scheme, double ratio, bool fast_path) {
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &sim::resolve_scheme(scheme.scheme);

  PathRun run;
  // Sampler off (interval 0): the series is the one artifact the fast-path
  // contract does not cover. Profiling on: span-merge arithmetic differs
  // between the loops, so the profile is the sharpest equivalence probe.
  run.telemetry = std::make_unique<telemetry::RunTelemetry>(
      telemetry::TelemetryOptions{/*sample_interval=*/0, /*max_samples=*/0,
                                  /*profile=*/true});
  verify::BuildOptions build;
  build.plan.encryption_ratio = ratio;
  build.selective = config.scheme->scope == sim::ProtectionScope::kPlanRows;
  run.input = std::make_unique<verify::AnalysisInput>(
      verify::build_input(specs, build));
  run.auditor = std::make_unique<verify::TaintAuditor>(run.input.get());

  RunOptions options;
  options.max_tiles_per_layer = kTiles;
  options.plan.encryption_ratio = ratio;
  options.telemetry = run.telemetry.get();
  options.probe_hook = run.auditor.get();
  options.fast_path = fast_path;
  run.result = run_network(specs, config, options);
  return run;
}

std::string registry_json(const telemetry::RunTelemetry& telemetry) {
  util::JsonWriter json;
  telemetry.registry().write_json(json);
  return json.str();
}

void expect_stats_identical(const sim::SimStats& a, const sim::SimStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.warp_instructions, b.warp_instructions);
  EXPECT_EQ(a.thread_instructions, b.thread_instructions);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
  EXPECT_EQ(a.encrypted_bytes, b.encrypted_bytes);
  EXPECT_EQ(a.bypassed_bytes, b.bypassed_bytes);
  EXPECT_EQ(a.aes_busy_cycles, b.aes_busy_cycles);  // exact ==, no tolerance
  EXPECT_EQ(a.dram_busy_cycles, b.dram_busy_cycles);
  EXPECT_EQ(a.counter_hits, b.counter_hits);
  EXPECT_EQ(a.counter_misses, b.counter_misses);
  EXPECT_EQ(a.counter_traffic_bytes, b.counter_traffic_bytes);
}

class FastPathEquivalence
    : public ::testing::TestWithParam<
          std::tuple<const char*, std::size_t, double>> {};

TEST_P(FastPathEquivalence, FastLoopMatchesNaiveLoopBitwise) {
  const auto& [net, scheme_idx, ratio] = GetParam();
  const SchemeCase& scheme = kSchemes[scheme_idx];
  const auto specs = specs_for(net);

  const PathRun fast = run_path(specs, scheme, ratio, /*fast_path=*/true);
  const PathRun slow = run_path(specs, scheme, ratio, /*fast_path=*/false);

  // Cycle checksum and per-layer stats, field for field.
  ASSERT_EQ(fast.result.layers.size(), slow.result.layers.size());
  for (std::size_t i = 0; i < fast.result.layers.size(); ++i) {
    EXPECT_EQ(fast.result.layers[i].name, slow.result.layers[i].name);
    EXPECT_EQ(fast.result.layers[i].scale, slow.result.layers[i].scale);
    expect_stats_identical(fast.result.layers[i].stats,
                           slow.result.layers[i].stats);
  }
  EXPECT_EQ(fast.result.total_cycles(), slow.result.total_cycles());

  // Metrics registry and cycle profile: byte-exact serialized documents.
  EXPECT_EQ(registry_json(*fast.telemetry), registry_json(*slow.telemetry));
  EXPECT_EQ(telemetry::cycle_profile_json(fast.telemetry->profile()),
            telemetry::cycle_profile_json(slow.telemetry->profile()));

  // Bus traffic: the taint ledgers digest identically — the loops put the
  // same bytes on the bus in the same per-layer order.
  EXPECT_EQ(fast.auditor->ledger().digest(), slow.auditor->ledger().digest());
  EXPECT_EQ(fast.auditor->ledger().total_bytes(),
            slow.auditor->ledger().total_bytes());

  // And the fast-path profile conserves every cycle (profile.* rules).
  const verify::Report report =
      verify::run_profile_check(fast.telemetry->profile());
  EXPECT_EQ(report.error_count(), 0u) << report.to_text();
}

INSTANTIATE_TEST_SUITE_P(
    NetworksSchemesRatios, FastPathEquivalence,
    ::testing::Combine(::testing::Values("vgg16", "resnet18", "resnet34"),
                       ::testing::Range<std::size_t>(0, 5),
                       ::testing::Values(0.25, 0.75)),
    [](const ::testing::TestParamInfo<FastPathEquivalence::ParamType>& info) {
      const double ratio = std::get<2>(info.param);
      return std::string(std::get<0>(info.param)) + "_" +
             kSchemes[std::get<1>(info.param)].name + "_" +
             (ratio == 0.25 ? "ratio025" : "ratio075");
    });

}  // namespace
}  // namespace sealdl::workload
