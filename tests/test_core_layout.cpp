// SecureHeap (emalloc) and ModelLayout: placement, alignment, and the
// secure-range marking that drives selective encryption.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "core/model_layout.hpp"
#include "core/secure_heap.hpp"
#include "models/layer_spec.hpp"
#include "sim/gpu_config.hpp"
#include "workload/network_runner.hpp"

namespace sealdl::core {
namespace {

TEST(SecureHeap, MallocIsNotSecure) {
  SecureHeap heap;
  const auto a = heap.malloc(1000);
  EXPECT_FALSE(heap.secure_map().is_secure(a.addr));
  EXPECT_EQ(heap.secure_map().secure_bytes(), 0u);
}

TEST(SecureHeap, EmallocIsSecure) {
  SecureHeap heap;
  const auto a = heap.emalloc(1000);
  EXPECT_TRUE(heap.secure_map().is_secure(a.addr));
  EXPECT_TRUE(heap.secure_map().is_secure(a.addr + 999));
  EXPECT_FALSE(heap.secure_map().is_secure(a.addr + 1000));
}

TEST(SecureHeap, AllocationsAreLineAlignedAndDisjoint) {
  SecureHeap heap;
  const auto a = heap.malloc(130);
  const auto b = heap.emalloc(1);
  EXPECT_EQ(a.addr % 128, 0u);
  EXPECT_EQ(b.addr % 128, 0u);
  EXPECT_GE(b.addr, a.addr + 130);
}

TEST(SecureHeap, ExhaustionThrows) {
  SecureHeap heap(0x1000, 1024);
  heap.malloc(512);
  EXPECT_THROW(heap.malloc(1024), std::bad_alloc);
}

TEST(SecureHeap, MarkSecureSubRange) {
  SecureHeap heap;
  const auto a = heap.malloc(4096);
  heap.mark_secure(a.addr + 128, 256);
  EXPECT_FALSE(heap.secure_map().is_secure(a.addr));
  EXPECT_TRUE(heap.secure_map().is_secure(a.addr + 128));
  EXPECT_TRUE(heap.secure_map().is_secure(a.addr + 383));
  EXPECT_FALSE(heap.secure_map().is_secure(a.addr + 384));
}

std::vector<models::LayerSpec> small_chain() {
  // conv(8ch,16x16) -> pool -> conv(8->16) -> fc
  using models::LayerSpec;
  std::vector<LayerSpec> specs;
  LayerSpec conv1;
  conv1.type = LayerSpec::Type::kConv;
  conv1.name = "conv1";
  conv1.in_channels = 8;
  conv1.out_channels = 8;
  conv1.in_h = conv1.in_w = 16;
  specs.push_back(conv1);
  LayerSpec pool;
  pool.type = LayerSpec::Type::kPool;
  pool.name = "pool";
  pool.in_channels = pool.out_channels = 8;
  pool.in_h = pool.in_w = 16;
  pool.kernel = pool.stride = 2;
  pool.padding = 0;
  specs.push_back(pool);
  LayerSpec conv2 = conv1;
  conv2.name = "conv2";
  conv2.in_channels = 8;
  conv2.out_channels = 16;
  conv2.in_h = conv2.in_w = 8;
  specs.push_back(conv2);
  LayerSpec fc;
  fc.type = LayerSpec::Type::kFc;
  fc.name = "fc";
  fc.in_features = 16 * 8 * 8;
  fc.out_features = 10;
  specs.push_back(fc);
  return specs;
}

TEST(ModelLayout, WithoutPlanNothingIsSecure) {
  SecureHeap heap;
  ModelLayout layout(small_chain(), nullptr, heap);
  EXPECT_EQ(heap.secure_map().secure_bytes(), 0u);
  EXPECT_EQ(layout.layers().size(), 4u);
}

TEST(ModelLayout, AddressingIsInternallyConsistent) {
  SecureHeap heap;
  ModelLayout layout(small_chain(), nullptr, heap);
  const auto& layers = layout.layers();
  // Chaining: each layer's ofmap buffer is the next layer's ifmap buffer.
  for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
    EXPECT_EQ(layers[i].ofmap_base, layers[i + 1].ifmap_base) << i;
  }
  // Weight rows are line aligned.
  for (const auto& l : layers) {
    if (l.spec.type == models::LayerSpec::Type::kPool) {
      EXPECT_EQ(l.weight_base, 0u);
      continue;
    }
    EXPECT_EQ(l.weight_base % 128, 0u);
    EXPECT_EQ(l.weight_row_pitch % 128, 0u);
    EXPECT_GE(l.weight_row_pitch, l.weight_row_bytes);
  }
}

EncryptionPlan plan_for(const std::vector<models::LayerSpec>& specs, double ratio,
                        bool boundary = false) {
  std::vector<int> rows;
  std::vector<bool> is_conv;
  for (const auto& s : specs) {
    if (s.type == models::LayerSpec::Type::kPool) continue;
    rows.push_back(s.weight_rows());
    is_conv.push_back(s.type == models::LayerSpec::Type::kConv);
  }
  PlanOptions options;
  options.encryption_ratio = ratio;
  if (!boundary) {
    options.full_head_convs = 0;
    options.full_tail_convs = 0;
    options.full_tail_fcs = 0;
  }
  return EncryptionPlan::from_row_counts(rows, is_conv, options);
}

TEST(ModelLayout, PlanMarksWeightRowsAndFmapChannels) {
  const auto specs = small_chain();
  const auto plan = plan_for(specs, 0.5);
  SecureHeap heap;
  ModelLayout layout(specs, &plan, heap);
  const auto& conv1 = layout.layers()[0];

  // Exactly the encrypted rows of conv1's plan are secure in its weights.
  const auto& lp = plan.layer(0);
  for (int r = 0; r < 8; ++r) {
    const sim::Addr row_addr =
        conv1.weight_base + static_cast<std::uint64_t>(r) * conv1.weight_row_pitch;
    EXPECT_EQ(heap.secure_map().is_secure(row_addr), lp.row_encrypted(r))
        << "row " << r;
  }
  // conv1's input channels mirror its encrypted rows (consumer rule).
  for (int c = 0; c < 8; ++c) {
    const sim::Addr ch_addr =
        conv1.ifmap_base + static_cast<std::uint64_t>(c) * conv1.ifmap_channel_pitch;
    EXPECT_EQ(heap.secure_map().is_secure(ch_addr), lp.row_encrypted(c))
        << "channel " << c;
  }
}

TEST(ModelLayout, PoolInheritsDownstreamConvChannels) {
  const auto specs = small_chain();
  const auto plan = plan_for(specs, 0.5);
  SecureHeap heap;
  ModelLayout layout(specs, &plan, heap);
  const auto& pool = layout.layers()[1];
  const auto& lp_conv2 = plan.layer(1);  // consumer of the pool's *output*...
  // The pool's input fmap is consumed by the pool itself; the next weight
  // layer downstream is conv2, so the pool input channels carry conv2's rows.
  for (int c = 0; c < 8; ++c) {
    const sim::Addr ch_addr =
        pool.ifmap_base + static_cast<std::uint64_t>(c) * pool.ifmap_channel_pitch;
    EXPECT_EQ(heap.secure_map().is_secure(ch_addr), lp_conv2.row_encrypted(c))
        << "pool channel " << c;
  }
}

TEST(ModelLayout, NetworkOutputFullyEncryptedUnderSeal) {
  const auto specs = small_chain();
  const auto plan = plan_for(specs, 0.3);
  SecureHeap heap;
  ModelLayout layout(specs, &plan, heap);
  const auto& fc = layout.layers().back();
  EXPECT_TRUE(heap.secure_map().is_secure(fc.ofmap_base));
}

TEST(ModelLayout, SecureFractionTracksRatio) {
  const auto specs = models::vgg16_specs(32);
  for (double ratio : {0.2, 0.5, 0.8}) {
    const auto plan = plan_for(specs, ratio);
    SecureHeap heap;
    ModelLayout layout(specs, &plan, heap);
    const double fraction =
        static_cast<double>(heap.secure_map().secure_bytes()) /
        static_cast<double>(layout.total_bytes());
    // Line-granular padding and the always-encrypted output blur the exact
    // value; it must still track the requested ratio.
    EXPECT_NEAR(fraction, ratio, 0.15) << "ratio " << ratio;
  }
}

TEST(ModelLayout, PlanMismatchThrows) {
  const auto specs = small_chain();
  const auto plan = plan_for({specs[0]}, 0.5);  // plan for 1 layer, specs have 3
  SecureHeap heap;
  EXPECT_THROW(ModelLayout(specs, &plan, heap), std::invalid_argument);
}

TEST(ModelLayout, EmptySpecChainThrows) {
  SecureHeap heap;
  EXPECT_THROW(ModelLayout({}, nullptr, heap), std::invalid_argument);
  EXPECT_EQ(heap.bytes_allocated(), 0u);
  EXPECT_THROW(workload::run_network({}, sim::GpuConfig::gtx480(), {}),
               std::invalid_argument);
}

TEST(ModelLayout, DirectoryLookupAndPlanIndex) {
  const auto specs = small_chain();
  SecureHeap heap;
  ModelLayout layout(specs, nullptr, heap);
  const auto& dir = layout.directory();
  ASSERT_FALSE(dir.empty());
  EXPECT_EQ(layout.region_at(dir.front().begin - 1), nullptr);
  EXPECT_EQ(layout.region_at(dir.back().end), nullptr);
  for (const Region& region : dir) {
    EXPECT_EQ(layout.region_at(region.begin), &region) << region.name;
    EXPECT_EQ(layout.region_at(region.end - 1), &region) << region.name;
  }
  const Region* conv2_w = layout.region_at(layout.layers()[2].weight_base);
  ASSERT_NE(conv2_w, nullptr);
  EXPECT_EQ(conv2_w->name, "conv2.weights");
  EXPECT_EQ(conv2_w->units, 8);
  EXPECT_EQ(layout.region_at(layout.layers().back().ofmap_base)->name, "output");
  EXPECT_TRUE(layout.region_at(layout.layers().back().ifmap_base)->dense_fc);

  // conv1, pool, conv2, fc -> plan layers 0, -, 1, 2; the pool's input is
  // consumed by conv2, and the network output by nothing.
  EXPECT_EQ(layout.plan_index(0), 0);
  EXPECT_EQ(layout.plan_index(1), -1);
  EXPECT_EQ(layout.plan_index(2), 1);
  EXPECT_EQ(layout.plan_index(3), 2);
  EXPECT_EQ(layout.consumer_plan_index(1), 1);
  EXPECT_EQ(layout.consumer_plan_index(specs.size()), -1);
  EXPECT_EQ(ModelLayout::plan_indices(specs), (std::vector<int>{0, -1, 1, 2}));
}

// The directory is a partition of the heap, in the style of a work-split
// noOverlap() + total-volume check: entries are sorted, pairwise disjoint and
// contiguous, their extents sum to every byte the layout placed, every secure
// byte lies inside an entry, and each spec owns exactly its buffers.
TEST(ModelLayout, DirectoryPartitionsTheHeap) {
  struct Network {
    std::string name;
    std::vector<models::LayerSpec> specs;
    std::uint64_t bytes;  ///< pinned footprint at 224x224 inputs (0: not pinned)
  };
  const std::vector<Network> networks = {
      {"vgg16", models::vgg16_specs(), 615'064'320},
      {"resnet18", models::resnet18_specs(), 58'989'312},
      {"resnet34", models::resnet34_specs(), 104'733'440},
      {"fig5", models::fig5_conv_layers(), 0},
      {"fig6", models::fig6_pool_layers(), 0},
  };
  for (const auto& [net, specs, bytes] : networks) {
    for (const bool with_plan : {false, true}) {
      SCOPED_TRACE(net + (with_plan ? " plan 0.5" : " no plan"));
      std::optional<EncryptionPlan> plan;
      if (with_plan) {
        PlanOptions options;
        options.encryption_ratio = 0.5;
        plan = EncryptionPlan::for_specs(specs, options);
      }
      SecureHeap heap;
      ModelLayout layout(specs, plan ? &*plan : nullptr, heap);
      const auto& dir = layout.directory();
      ASSERT_FALSE(dir.empty());

      EXPECT_EQ(dir.front().begin, heap.base());
      std::uint64_t volume = 0;
      for (std::size_t k = 0; k < dir.size(); ++k) {
        EXPECT_LT(dir[k].begin, dir[k].end) << dir[k].name;
        EXPECT_EQ(dir[k].end - dir[k].begin,
                  dir[k].pitch * static_cast<std::uint64_t>(dir[k].units))
            << dir[k].name;
        if (k + 1 < dir.size()) {
          EXPECT_EQ(dir[k].end, dir[k + 1].begin) << dir[k].name;
        }
        volume += dir[k].end - dir[k].begin;
      }
      EXPECT_EQ(volume, layout.total_bytes());
      EXPECT_EQ(volume, heap.bytes_allocated());
      if (bytes != 0) {
        EXPECT_EQ(volume, bytes);
      }

      // Coalesced secure ranges may span adjacent entries, so coverage is
      // stated as volume: the per-entry secure bytes add up to the map's.
      const auto& map = heap.secure_map();
      std::uint64_t secure_in_entries = 0;
      for (const Region& region : dir) {
        secure_in_entries += map.secure_bytes_in(region.begin, region.end - region.begin);
      }
      EXPECT_EQ(secure_in_entries, map.secure_bytes());
      map.visit([&](sim::Addr begin, sim::Addr end) {
        EXPECT_NE(layout.region_at(begin), nullptr);
        EXPECT_NE(layout.region_at(end - 1), nullptr);
      });
      EXPECT_EQ(map.secure_bytes() != 0, with_plan);

      std::vector<int> weights(specs.size(), 0), fmaps(specs.size() + 1, 0);
      for (const Region& region : dir) {
        ASSERT_LE(region.spec_index, specs.size()) << region.name;
        if (region.kind == Region::Kind::kWeights) {
          ++weights[region.spec_index];
          EXPECT_EQ(region.name, specs[region.spec_index].name + ".weights");
          EXPECT_EQ(region.units, specs[region.spec_index].weight_rows());
        } else {
          ++fmaps[region.spec_index];
          EXPECT_EQ(region.name, region.spec_index == specs.size()
                                     ? std::string("output")
                                     : specs[region.spec_index].name + ".in");
        }
      }
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const bool weight_layer = specs[i].type != models::LayerSpec::Type::kPool;
        EXPECT_EQ(weights[i], weight_layer ? 1 : 0) << specs[i].name;
        EXPECT_EQ(fmaps[i], 1) << specs[i].name;
      }
      EXPECT_EQ(fmaps[specs.size()], 1);
    }
  }
}

}  // namespace
}  // namespace sealdl::core
