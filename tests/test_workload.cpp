// Workload generators: op accounting against analytic expectations, and the
// network runner's scaling.
#include <gtest/gtest.h>

#include "core/model_layout.hpp"
#include "sim/scheme_registry.hpp"
#include "workload/gemm_trace.hpp"
#include "workload/layer_trace.hpp"
#include "workload/network_runner.hpp"

namespace sealdl::workload {
namespace {

struct OpCounts {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t compute_instrs = 0;
  std::uint64_t waits = 0;
};

OpCounts drain(sim::WarpProgram& program) {
  OpCounts counts;
  while (auto op = program.next()) {
    switch (op->kind) {
      case sim::WarpOp::Kind::kLoad:
        ++counts.loads;
        break;
      case sim::WarpOp::Kind::kStore:
        ++counts.stores;
        break;
      case sim::WarpOp::Kind::kCompute:
        counts.compute_instrs += op->count;
        break;
      case sim::WarpOp::Kind::kWaitLoads:
        ++counts.waits;
        break;
    }
  }
  return counts;
}

OpCounts drain_all(std::vector<sim::WarpProgramPtr>& programs) {
  OpCounts total;
  for (auto& p : programs) {
    const OpCounts c = drain(*p);
    total.loads += c.loads;
    total.stores += c.stores;
    total.compute_instrs += c.compute_instrs;
    total.waits += c.waits;
  }
  return total;
}

TEST(GemmTrace, OpVolumesMatchAnalyticCounts) {
  GemmSpec spec;
  spec.m = spec.n = spec.k = 128;  // 4x4 tiles of 32x32
  auto programs = make_gemm_programs(spec, 4);
  const OpCounts counts = drain_all(programs);

  // Stores: each C element written once as part of 128B lines: 128*128
  // floats / 32 per line = 512 line stores.
  EXPECT_EQ(counts.stores, 512u);
  // Loads per tile: 4 K-chunks x (32 A lines + 32 B lines) = 256; 16 tiles.
  EXPECT_EQ(counts.loads, 16u * 256u);
  // Compute: 128^3 MACs / 32 lanes * 1.12 overhead, batched per chunk.
  const double expected = 128.0 * 128.0 * 128.0 / 32.0 * 1.12;
  EXPECT_NEAR(static_cast<double>(counts.compute_instrs), expected,
              expected * 0.01);
  // One barrier per (tile, chunk).
  EXPECT_EQ(counts.waits, 16u * 4u);
}

TEST(GemmTrace, TileCapLimitsWork) {
  GemmSpec spec;
  spec.m = spec.n = spec.k = 128;
  auto capped = make_gemm_programs(spec, 4, /*max_tiles=*/4);
  auto full = make_gemm_programs(spec, 4);
  EXPECT_EQ(drain_all(capped).stores * 4, drain_all(full).stores);
}

TEST(GemmTrace, WarpsPartitionTilesExactly) {
  GemmSpec spec;
  spec.m = spec.n = 64;
  spec.k = 32;
  for (int warps : {1, 2, 3, 4}) {
    auto programs = make_gemm_programs(spec, warps);
    // Total stores are warp-count invariant.
    EXPECT_EQ(drain_all(programs).stores, 128u) << warps << " warps";
  }
}

core::LayerAddressing layout_single(const models::LayerSpec& spec,
                                    core::SecureHeap& heap) {
  core::ModelLayout layout({spec}, nullptr, heap);
  return layout.layers()[0];
}

models::LayerSpec conv_spec(int in_ch, int out_ch, int hw) {
  models::LayerSpec s;
  s.type = models::LayerSpec::Type::kConv;
  s.name = "conv";
  s.in_channels = in_ch;
  s.out_channels = out_ch;
  s.in_h = s.in_w = hw;
  return s;
}

workload::LayerTraceOptions exact_options() {
  // Disable the small-layer tile refinement so op counts follow the base
  // tiling analytically.
  workload::LayerTraceOptions options;
  options.min_tiles = 1;
  return options;
}

TEST(ConvTrace, ComputeMatchesLayerMacs) {
  const auto spec = conv_spec(16, 32, 16);
  core::SecureHeap heap;
  const auto layer = layout_single(spec, heap);
  auto work = make_layer_programs(layer, 8, 0, exact_options());
  const OpCounts counts = drain_all(work.programs);
  const double expected =
      static_cast<double>(spec.macs()) / 32.0 * 1.12;
  // Per-chunk ceil() rounding inflates slightly.
  EXPECT_NEAR(static_cast<double>(counts.compute_instrs), expected,
              expected * 0.05);
  EXPECT_EQ(work.total_tiles, work.simulated_tiles);
  EXPECT_DOUBLE_EQ(work.scale(), 1.0);
}

TEST(ConvTrace, StoresCoverOutputOnce) {
  const auto spec = conv_spec(8, 16, 32);  // out 16ch x 32x32
  core::SecureHeap heap;
  const auto layer = layout_single(spec, heap);
  auto work = make_layer_programs(layer, 8, 0, exact_options());
  const OpCounts counts = drain_all(work.programs);
  // 16 * 32 * 32 floats / 32 per line = 512 line stores (32-wide rows align).
  EXPECT_EQ(counts.stores, 512u);
}

TEST(ConvTrace, SamplingScalesCycles) {
  const auto spec = conv_spec(64, 64, 64);
  core::SecureHeap heap;
  const auto layer = layout_single(spec, heap);
  auto full = make_layer_programs(layer, 8, 0, exact_options());
  auto sampled = make_layer_programs(layer, 8, /*max_tiles=*/8, exact_options());
  EXPECT_GT(full.total_tiles, 8u);
  EXPECT_EQ(sampled.simulated_tiles, 8u);
  EXPECT_DOUBLE_EQ(sampled.scale(),
                   static_cast<double>(full.total_tiles) / 8.0);
}

TEST(PoolTrace, ReadsEveryInputRowOnce) {
  models::LayerSpec spec;
  spec.type = models::LayerSpec::Type::kPool;
  spec.name = "pool";
  spec.in_channels = spec.out_channels = 8;
  spec.in_h = spec.in_w = 32;
  spec.kernel = spec.stride = 2;
  spec.padding = 0;
  core::SecureHeap heap;
  const auto layer = layout_single(spec, heap);
  auto work = make_layer_programs(layer, 4);
  const OpCounts counts = drain_all(work.programs);
  // Input: 8ch x 32 rows x 32 floats = one 128B line per row => 256 loads.
  EXPECT_EQ(counts.loads, 8u * 32u);
  // Output: 8ch x 16 rows x 16 floats => 64B per row => 1 line store per row.
  EXPECT_EQ(counts.stores, 8u * 16u);
}

TEST(FcTrace, WeightTrafficDominates) {
  models::LayerSpec spec;
  spec.type = models::LayerSpec::Type::kFc;
  spec.name = "fc";
  spec.in_features = 256;
  spec.out_features = 64;
  core::SecureHeap heap;
  const auto layer = layout_single(spec, heap);
  auto work = make_layer_programs(layer, 4);
  const OpCounts counts = drain_all(work.programs);
  // Each of 2 output blocks streams all 256 weight rows (1 line for 32
  // floats) plus the input vector (256 floats / 32 = 8 lines per block).
  EXPECT_EQ(counts.loads, 2u * (256u + 8u));
  EXPECT_EQ(counts.stores, 2u);
}

TEST(NetworkRunner, SchemesOrderOnSmallNetwork) {
  const auto specs = models::vgg16_specs(32);
  RunOptions options;
  options.max_tiles_per_layer = 60;

  auto run_scheme = [&](const char* scheme) {
    sim::GpuConfig config = sim::GpuConfig::gtx480();
    config.scheme = &sim::resolve_scheme(scheme);
    return run_network(specs, config, options);
  };
  const auto baseline = run_scheme("baseline");
  const auto direct = run_scheme("direct");
  const auto seal = run_scheme("seal-d");

  EXPECT_EQ(baseline.layers.size(), specs.size());
  EXPECT_GT(baseline.overall_ipc(), 0.0);
  // Full encryption slower than SEAL slower than baseline.
  EXPECT_GT(direct.total_cycles(), seal.total_cycles());
  EXPECT_GT(seal.total_cycles(), baseline.total_cycles());
}

// The config's registry entry alone selects what a run protects: with default
// RunOptions every scheme's encrypted/bypassed split follows its scope. (A
// runner that re-derived selectivity from the options would silently run the
// selective schemes as full encryption.)
TEST(NetworkRunner, RegistryEntryAloneSetsProtectionScope) {
  // Five CONVs: past the plan's two full head convs and one full tail conv,
  // the body layers run at the default 50% ratio.
  std::vector<models::LayerSpec> specs(5);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "conv" + std::to_string(i + 1);
    specs[i].in_channels = specs[i].out_channels = 32;
    specs[i].in_h = specs[i].in_w = 16;
  }
  for (const sim::SchemeInfo& entry : sim::scheme_registry()) {
    sim::GpuConfig config = sim::GpuConfig::gtx480();
    config.scheme = &entry;
    std::uint64_t encrypted = 0;
    std::uint64_t bypassed = 0;
    for (const auto& layer : run_network(specs, config, RunOptions{}).layers) {
      encrypted += layer.stats.encrypted_bytes;
      bypassed += layer.stats.bypassed_bytes;
    }
    SCOPED_TRACE(entry.cli_name);
    switch (entry.scope) {
      case sim::ProtectionScope::kNone:
        EXPECT_EQ(encrypted, 0u);
        break;
      case sim::ProtectionScope::kAll:
        EXPECT_GT(encrypted, 0u);
        EXPECT_EQ(bypassed, 0u);
        break;
      case sim::ProtectionScope::kPlanRows:
      case sim::ProtectionScope::kWeights:
        EXPECT_GT(encrypted, 0u);
        EXPECT_GT(bypassed, 0u);
        break;
    }
  }
}

TEST(NetworkRunner, LayerFilterSelectsSubset) {
  const auto specs = models::vgg16_specs(32);
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  RunOptions options;
  options.max_tiles_per_layer = 20;
  options.layer_filter = {2, 5};
  const auto result = run_network(specs, config, options);
  ASSERT_EQ(result.layers.size(), 2u);
  EXPECT_EQ(result.layers[0].name, specs[2].name);
  EXPECT_EQ(result.layers[1].name, specs[5].name);
}

}  // namespace
}  // namespace sealdl::workload
