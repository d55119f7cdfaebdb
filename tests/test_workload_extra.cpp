// Additional workload-generator behaviour: software pipelining structure,
// phase-rotation coverage, adaptive refinement, determinism, and the --chunk
// tile split's partition invariants.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_map>

#include "core/model_layout.hpp"
#include "models/layer_spec.hpp"
#include "workload/gemm_trace.hpp"
#include "workload/layer_trace.hpp"

namespace sealdl::workload {
namespace {

models::LayerSpec conv_spec(int in_ch, int out_ch, int hw) {
  models::LayerSpec s;
  s.type = models::LayerSpec::Type::kConv;
  s.name = "conv";
  s.in_channels = in_ch;
  s.out_channels = out_ch;
  s.in_h = s.in_w = hw;
  return s;
}

core::LayerAddressing layout_single(const models::LayerSpec& spec,
                                    core::SecureHeap& heap) {
  core::ModelLayout layout({spec}, nullptr, heap);
  return layout.layers()[0];
}

TEST(Pipelining, ComputeIsInterleavedBetweenLoadGroups) {
  // After the first chunk, the op stream must alternate small load groups
  // with compute slices — never a long run of loads with zero compute.
  const auto spec = conv_spec(32, 32, 16);
  core::SecureHeap heap;
  const auto layer = layout_single(spec, heap);
  auto work = make_layer_programs(layer, 1);
  int consecutive_loads = 0, max_consecutive_loads = 0;
  bool past_first_chunk = false;
  int waits_seen = 0;
  while (auto op = work.programs[0]->next()) {
    switch (op->kind) {
      case sim::WarpOp::Kind::kLoad:
        ++consecutive_loads;
        max_consecutive_loads =
            past_first_chunk ? std::max(max_consecutive_loads, consecutive_loads)
                             : max_consecutive_loads;
        break;
      case sim::WarpOp::Kind::kWaitLoads:
        ++waits_seen;
        past_first_chunk = true;
        consecutive_loads = 0;
        break;
      case sim::WarpOp::Kind::kStore:
        // Tile boundary: the next tile's first chunk legitimately has no
        // pending compute to interleave.
        past_first_chunk = false;
        consecutive_loads = 0;
        break;
      default:
        consecutive_loads = 0;
        break;
    }
  }
  EXPECT_GT(waits_seen, 0);
  // Interleave groups are 8 loads; allow a small margin for group boundaries.
  EXPECT_LE(max_consecutive_loads, 16);
}

TEST(PhaseRotation, EveryChunkVisitedExactlyOncePerTile) {
  // The K-loop rotation must be a permutation: collect the weight-row ids
  // touched by one single-tile warp and check all input channels appear.
  const auto spec = conv_spec(64, 32, 8);
  core::SecureHeap heap;
  const auto layer = layout_single(spec, heap);
  LayerTraceOptions options;
  options.min_tiles = 1;
  auto work = make_layer_programs(layer, 1, /*max_tiles=*/1, options);
  std::set<sim::Addr> weight_rows;
  while (auto op = work.programs[0]->next()) {
    if (op->kind != sim::WarpOp::Kind::kLoad) continue;
    if (op->addr >= layer.weight_base &&
        op->addr < layer.weight_base + 64 * layer.weight_row_pitch) {
      weight_rows.insert((op->addr - layer.weight_base) / layer.weight_row_pitch);
    }
  }
  EXPECT_EQ(weight_rows.size(), 64u);  // all 64 input channels touched
}

TEST(AdaptiveRefinement, SmallLayersGetMoreTiles) {
  // A 7x7x512 layer refines its tiling toward min_tiles.
  const auto spec = conv_spec(512, 512, 7);
  core::SecureHeap heap;
  const auto layer = layout_single(spec, heap);
  LayerTraceOptions coarse;
  coarse.min_tiles = 1;
  LayerTraceOptions fine;  // default min_tiles
  const auto work_coarse = make_layer_programs(layer, 16, 0, coarse);
  const auto work_fine = make_layer_programs(layer, 16, 0, fine);
  EXPECT_GT(work_fine.total_tiles, work_coarse.total_tiles);
  EXPECT_GE(work_fine.total_tiles, 128u);
}

TEST(AdaptiveRefinement, DoesNotChangeComputeTotals) {
  const auto spec = conv_spec(512, 512, 7);
  core::SecureHeap heap;
  const auto layer = layout_single(spec, heap);
  auto count_compute = [&](int min_tiles) {
    LayerTraceOptions options;
    options.min_tiles = min_tiles;
    auto work = make_layer_programs(layer, 8, 0, options);
    std::uint64_t total = 0;
    for (auto& program : work.programs) {
      while (auto op = program->next()) {
        if (op->kind == sim::WarpOp::Kind::kCompute) total += op->count;
      }
    }
    return total;
  };
  const auto coarse = count_compute(1);
  const auto fine = count_compute(240);
  // MAC totals identical up to per-chunk ceil rounding.
  EXPECT_NEAR(static_cast<double>(fine), static_cast<double>(coarse),
              static_cast<double>(coarse) * 0.02);
}

TEST(GemmTrace, PhaseRotationCoversAllKChunks) {
  GemmSpec spec;
  spec.m = spec.n = 32;
  spec.k = 256;  // 8 chunks
  spec.a_base = 0x100000;
  spec.b_base = 0x200000;
  spec.c_base = 0x300000;
  auto programs = make_gemm_programs(spec, 1);
  std::set<sim::Addr> a_lines;
  while (auto op = programs[0]->next()) {
    if (op->kind == sim::WarpOp::Kind::kLoad && op->addr >= spec.a_base &&
        op->addr < spec.b_base) {
      a_lines.insert(op->addr);
    }
  }
  // A is 32x256 floats = 32KB = 256 lines, all touched exactly once.
  EXPECT_EQ(a_lines.size(), 256u);
}

TEST(Generators, DeterministicOpStreams) {
  const auto spec = conv_spec(16, 16, 16);
  core::SecureHeap heap;
  const auto layer = layout_single(spec, heap);
  auto drain = [&] {
    auto work = make_layer_programs(layer, 4);
    std::vector<std::uint64_t> sig;
    for (auto& program : work.programs) {
      while (auto op = program->next()) {
        sig.push_back((static_cast<std::uint64_t>(op->kind) << 56) ^ op->addr ^
                      op->count);
      }
    }
    return sig;
  };
  EXPECT_EQ(drain(), drain());
}

TEST(Generators, GemmAddressesStayInsideMatrices) {
  GemmSpec spec;
  spec.m = 96;
  spec.n = 64;
  spec.k = 32;
  spec.a_base = 0x10000;
  spec.b_base = 0x40000;
  spec.c_base = 0x80000;
  auto programs = make_gemm_programs(spec, 3);
  const auto a_end = spec.a_base + static_cast<sim::Addr>(spec.m) * spec.k * 4;
  const auto b_end = spec.b_base + static_cast<sim::Addr>(spec.k) * spec.n * 4;
  const auto c_end = spec.c_base + static_cast<sim::Addr>(spec.m) * spec.n * 4;
  for (auto& program : programs) {
    while (auto op = program->next()) {
      if (op->kind == sim::WarpOp::Kind::kLoad) {
        const bool in_a = op->addr >= spec.a_base && op->addr < a_end;
        const bool in_b = op->addr >= spec.b_base && op->addr < b_end;
        EXPECT_TRUE(in_a || in_b) << std::hex << op->addr;
      } else if (op->kind == sim::WarpOp::Kind::kStore) {
        EXPECT_GE(op->addr, spec.c_base);
        EXPECT_LT(op->addr, c_end);
      }
    }
  }
}

// What a build's programs do, independent of which program does it or in
// what order: the multiset of memory ops, keyed (line << 1 | is_store), and
// the summed compute count.
struct OpCensus {
  std::unordered_map<std::uint64_t, std::uint64_t> memory;
  std::uint64_t compute = 0;
};

void take_census(LayerWork& work, OpCensus& census) {
  for (auto& program : work.programs) {
    while (auto op = program->next()) {
      if (op->kind == sim::WarpOp::Kind::kLoad) ++census.memory[op->addr << 1];
      if (op->kind == sim::WarpOp::Kind::kStore) ++census.memory[op->addr << 1 | 1];
      if (op->kind == sim::WarpOp::Kind::kCompute) census.compute += op->count;
    }
  }
}

TEST(ChunkPartition, ChunksReplayTheUnchunkedBuildExactly) {
  // The tile-split analogue of ModelLayout.DirectoryPartitionsTheHeap: for
  // every layer, cap and chunk count, the chunks report the layer's tile
  // count, their simulated tiles neither overlap nor miss (they sum to the
  // unchunked slice), and together they issue exactly the unchunked build's
  // loads, stores and compute.
  constexpr int kWarps = 12;
  int combinations = 0;
  for (const auto& specs : {models::vgg16_specs(96), models::resnet18_specs(96)}) {
    core::SecureHeap heap;
    const core::ModelLayout layout(specs, nullptr, heap);
    for (const core::LayerAddressing& layer : layout.layers()) {
      for (const std::uint64_t cap : {0u, 48u}) {
        LayerWork whole = make_layer_programs(layer, kWarps, cap);
        OpCensus expected;
        take_census(whole, expected);
        for (const int chunks : {1, 2, 3, 7}) {
          std::uint64_t simulated = 0;
          OpCensus replayed;
          for (int c = 0; c < chunks; ++c) {
            LayerWork part = make_layer_programs(layer, kWarps, cap, {}, c, chunks);
            EXPECT_EQ(part.total_tiles, whole.total_tiles) << layer.spec.name;
            simulated += part.simulated_tiles;
            take_census(part, replayed);
          }
          const std::string where = layer.spec.name + " cap " + std::to_string(cap) +
                                    " chunks " + std::to_string(chunks);
          EXPECT_EQ(simulated, whole.simulated_tiles) << where;
          EXPECT_EQ(replayed.compute, expected.compute) << where;
          EXPECT_TRUE(replayed.memory == expected.memory) << where;
          ++combinations;
        }
      }
    }
  }
  EXPECT_EQ(combinations, 344);
}

}  // namespace
}  // namespace sealdl::workload
