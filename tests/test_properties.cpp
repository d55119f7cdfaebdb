// Property-style sweeps: conservation laws and invariants that must hold for
// any configuration, checked across parameter grids.
#include <gtest/gtest.h>

#include <utility>

#include "core/encryption_plan.hpp"
#include "core/model_layout.hpp"
#include "core/secure_heap.hpp"
#include "models/layer_spec.hpp"
#include "nn/dataset.hpp"
#include "sim/gpu_simulator.hpp"
#include "sim/scheme_registry.hpp"
#include "util/rng.hpp"
#include "workload/layer_trace.hpp"
#include "workload/network_runner.hpp"

namespace sealdl {
namespace {

// --------------------------------------------------- secure map properties ---

class SecureMapRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SecureMapRandomOps, MatchesNaiveBitmapModel) {
  // Random adds/removes against a byte-granular reference model.
  constexpr std::size_t kSpan = 4096;
  util::Rng rng(GetParam());
  sim::SecureMap map;
  std::vector<bool> reference(kSpan, false);
  for (int op = 0; op < 200; ++op) {
    const auto begin = rng.next_below(kSpan - 1);
    const auto size = 1 + rng.next_below(256);
    const auto end = std::min<std::uint64_t>(kSpan, begin + size);
    if (rng.bernoulli(0.7)) {
      map.add_range(begin, end - begin);
      for (std::uint64_t i = begin; i < end; ++i) reference[i] = true;
    } else {
      map.remove_range(begin, end - begin);
      for (std::uint64_t i = begin; i < end; ++i) reference[i] = false;
    }
  }
  std::uint64_t reference_bytes = 0;
  for (std::size_t i = 0; i < kSpan; ++i) {
    EXPECT_EQ(map.is_secure(i), reference[i]) << "byte " << i;
    reference_bytes += reference[i] ? 1 : 0;
  }
  EXPECT_EQ(map.secure_bytes(), reference_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SecureMapRandomOps,
                         ::testing::Values(11, 22, 33, 44, 55));

// ------------------------------------------------------- plan/layout sweep ---

class PlanLayoutSweep
    : public ::testing::TestWithParam<std::tuple<double, core::RowPolicy>> {};

TEST_P(PlanLayoutSweep, WeightMarkingAlwaysMatchesPlan) {
  const auto [ratio, policy] = GetParam();
  const auto specs = models::resnet18_specs(32);
  std::vector<int> rows;
  std::vector<bool> is_conv;
  for (const auto& s : specs) {
    if (s.type == models::LayerSpec::Type::kPool) continue;
    rows.push_back(s.type == models::LayerSpec::Type::kConv ? s.in_channels
                                                            : s.in_features);
    is_conv.push_back(s.type == models::LayerSpec::Type::kConv);
  }
  core::PlanOptions options;
  options.encryption_ratio = ratio;
  options.policy = policy;
  const auto plan = core::EncryptionPlan::from_row_counts(rows, is_conv, options);
  core::SecureHeap heap;
  core::ModelLayout layout(specs, &plan, heap);

  int plan_idx = 0;
  for (const auto& layer : layout.layers()) {
    if (layer.spec.type == models::LayerSpec::Type::kPool) continue;
    const auto& lp = plan.layer(static_cast<std::size_t>(plan_idx++));
    for (int r = 0; r < lp.rows; ++r) {
      const sim::Addr addr =
          layer.weight_base + static_cast<std::uint64_t>(r) * layer.weight_row_pitch;
      EXPECT_EQ(heap.secure_map().is_secure(addr), lp.row_encrypted(r))
          << layer.spec.name << " row " << r << " ratio " << ratio;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlanLayoutSweep,
    ::testing::Combine(::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                       ::testing::Values(core::RowPolicy::kSmallestL1Plain,
                                         core::RowPolicy::kRandomPlain,
                                         core::RowPolicy::kLargestL1Plain)));

// ------------------------------------------------- simulator conservation ---

/// One cipher family per instance: its full-scope registry name (first) and
/// its plan-row SEAL counterpart (second; Baseline has none).
class TrafficConservation
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(TrafficConservation, DramReadsBoundedByMissesAndNonZero) {
  // Each DRAM data read is one line fill; the L2 miss count exceeds the
  // fill count because merged (MSHR-hit) accesses also record misses.
  const auto spec = [] {
    models::LayerSpec s;
    s.type = models::LayerSpec::Type::kConv;
    s.name = "conv";
    s.in_channels = 32;
    s.out_channels = 32;
    s.in_h = s.in_w = 32;
    return s;
  }();
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &sim::resolve_scheme(GetParam().first);
  workload::RunOptions options;
  options.max_tiles_per_layer = 0;  // exact
  const auto result = workload::run_single_layer(spec, config, options);
  const auto& stats = result.stats;
  EXPECT_GT(stats.dram_read_bytes, 0u);
  EXPECT_LE(stats.dram_read_bytes, stats.l2_misses * 128u);
  EXPECT_EQ(stats.dram_read_bytes % 128u, 0u);  // line granular
  EXPECT_GT(stats.dram_write_bytes, 0u);
}

TEST_P(TrafficConservation, EncryptedPlusBypassedCoversSecureTraffic) {
  const auto spec = [] {
    models::LayerSpec s;
    s.type = models::LayerSpec::Type::kConv;
    s.name = "conv";
    s.in_channels = 16;
    s.out_channels = 16;
    s.in_h = s.in_w = 32;
    return s;
  }();
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &sim::resolve_scheme(GetParam().second);
  workload::RunOptions options;
  options.max_tiles_per_layer = 0;
  options.plan.encryption_ratio = 0.5;
  options.plan.full_head_convs = 0;
  options.plan.full_tail_convs = 0;
  options.plan.full_tail_fcs = 0;
  const auto result = workload::run_single_layer(spec, config, options);
  const auto& stats = result.stats;
  if (config.scheme->family == sim::EncryptionScheme::kNone) {
    EXPECT_EQ(stats.encrypted_bytes, 0u);
  } else {
    // Every data byte is classified exactly once (dram_bytes counts data
    // lines only; counter-block traffic is a separate counter).
    EXPECT_EQ(stats.encrypted_bytes + stats.bypassed_bytes, stats.dram_bytes());
    EXPECT_GT(stats.encrypted_bytes, 0u);
    EXPECT_GT(stats.bypassed_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, TrafficConservation,
                         ::testing::Values(std::pair{"baseline", "baseline"},
                                           std::pair{"direct", "seal-d"},
                                           std::pair{"counter", "seal-c"}));

// ------------------------------------------------------ tile sweep checks ---

class ConvTileSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConvTileSweep, LoadVolumeIsSamplingInvariantPerTile) {
  // For any geometry, average per-tile compute must match the layer's MAC
  // count regardless of the sampling cap.
  const auto [in_ch, out_ch, hw] = GetParam();
  models::LayerSpec spec;
  spec.type = models::LayerSpec::Type::kConv;
  spec.name = "conv";
  spec.in_channels = in_ch;
  spec.out_channels = out_ch;
  spec.in_h = spec.in_w = hw;

  core::SecureHeap heap;
  core::ModelLayout layout({spec}, nullptr, heap);
  auto work = workload::make_layer_programs(layout.layers()[0], 16);
  std::uint64_t compute = 0;
  for (auto& program : work.programs) {
    while (auto op = program->next()) {
      if (op->kind == sim::WarpOp::Kind::kCompute) compute += op->count;
    }
  }
  const double expected = static_cast<double>(spec.macs()) / 32.0 * 1.12;
  EXPECT_NEAR(static_cast<double>(compute), expected, expected * 0.06)
      << in_ch << "x" << out_ch << "@" << hw;
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvTileSweep,
                         ::testing::Values(std::make_tuple(8, 8, 16),
                                           std::make_tuple(16, 32, 16),
                                           std::make_tuple(32, 16, 32),
                                           std::make_tuple(3, 64, 32),
                                           std::make_tuple(64, 64, 8)));

// ------------------------------------------------------ dataset properties ---

TEST(DatasetProperties, DifferentSeedsDifferentImagesSameStructure) {
  nn::DatasetConfig a;
  a.height = a.width = 8;
  a.samples = 50;
  nn::DatasetConfig b = a;
  b.seed = 43;
  nn::SyntheticDataset da(a), db(b);
  // Labels follow the same balanced pattern...
  for (int i = 0; i < 50; ++i) EXPECT_EQ(da.label(i), db.label(i));
  // ...but pixel content differs.
  const auto xa = da.batch({0});
  const auto xb = db.batch({0});
  bool any_diff = false;
  for (std::size_t i = 0; i < xa.numel(); ++i) any_diff |= xa[i] != xb[i];
  EXPECT_TRUE(any_diff);
}

TEST(DatasetProperties, SamplesOfOneClassShareStructure) {
  // Two samples of a class are noisy shifted copies of one prototype, so
  // their correlation must beat cross-class correlation on average.
  nn::DatasetConfig config;
  config.height = config.width = 16;
  config.samples = 200;
  config.noise_stddev = 0.1f;
  config.max_shift = 0;  // isolate the prototype structure
  nn::SyntheticDataset data(config);
  auto corr = [&](int i, int j) {
    const auto a = data.batch({i});
    const auto b = data.batch({j});
    double dot = 0, na = 0, nb = 0;
    for (std::size_t k = 0; k < a.numel(); ++k) {
      dot += a[k] * b[k];
      na += a[k] * a[k];
      nb += b[k] * b[k];
    }
    return dot / std::sqrt(na * nb);
  };
  // samples i and i+10 share a class; i and i+1 do not.
  double same = 0, cross = 0;
  for (int i = 0; i < 20; ++i) {
    same += corr(i, i + 10);
    cross += corr(i, i + 1);
  }
  EXPECT_GT(same / 20, cross / 20 + 0.2);
}

}  // namespace
}  // namespace sealdl
