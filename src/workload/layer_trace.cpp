#include "workload/layer_trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "workload/trace_common.hpp"

namespace sealdl::workload {

namespace {

using core::LayerAddressing;
using models::LayerSpec;

// ------------------------------------------------------------------ CONV ---

class ConvWarpProgram final : public BufferedWarpProgram {
 public:
  ConvWarpProgram(const LayerAddressing& layer, const LayerTraceOptions& options,
                  std::uint64_t first_tile, std::uint64_t limit)
      : layer_(layer), options_(options), tile_(first_tile), limit_(limit),
        phase_(first_tile * 0x9E3779B97F4A7C15ULL >> 32) {
    const LayerSpec& s = layer_.spec;
    oc_block_ = std::min(options.oc_block, s.out_channels);
    tile_w_ = std::min(options.tile_w, s.out_w());
    tile_h_ = std::max(1, options.tile_positions / tile_w_);
    tile_h_ = std::min(tile_h_, s.out_h());
    ic_chunk_ = std::min(options.ic_chunk, s.in_channels);
    auto recompute = [&] {
      tiles_oc_ = (s.out_channels + oc_block_ - 1) / oc_block_;
      tiles_y_ = (s.out_h() + tile_h_ - 1) / tile_h_;
      tiles_x_ = (s.out_w() + tile_w_ - 1) / tile_w_;
    };
    recompute();
    // Small layers: refine the tiling until the grid can occupy the machine.
    while (total_tiles() < static_cast<std::uint64_t>(options.min_tiles)) {
      if (oc_block_ > 8) {
        oc_block_ /= 2;
      } else if (tile_h_ > 1) {
        tile_h_ = (tile_h_ + 1) / 2;
      } else {
        break;  // never split tile_w: sub-line row stores are pathological
      }
      recompute();
    }
    chunks_ = (s.in_channels + ic_chunk_ - 1) / ic_chunk_;
  }

  [[nodiscard]] std::uint64_t total_tiles() const {
    return static_cast<std::uint64_t>(tiles_oc_) * static_cast<std::uint64_t>(tiles_y_) *
           static_cast<std::uint64_t>(tiles_x_);
  }

 protected:
  bool refill() override {
    if (tile_ >= limit_) return false;
    const LayerSpec& s = layer_.spec;

    // Decompose the tile index with a diagonal (Latin-square) mapping over
    // (oc-block, spatial-block): consecutive indices advance both
    // coordinates, so warps running in lockstep hold tiles that differ in
    // output channels AND spatial position and share neither weight nor
    // ifmap lines. This models the reuse real kernels get (per-block shared
    // memory, negligible cross-block L2 reuse at these working-set sizes).
    const std::uint64_t per_oc = static_cast<std::uint64_t>(tiles_y_) * static_cast<std::uint64_t>(tiles_x_);
    const std::uint64_t oc_idx = tile_ % static_cast<std::uint64_t>(tiles_oc_);
    const std::uint64_t sp_idx = (tile_ / static_cast<std::uint64_t>(tiles_oc_) + oc_idx) % per_oc;
    const int oc0 = static_cast<int>(oc_idx) * oc_block_;
    const int y0 = static_cast<int>(sp_idx / static_cast<std::uint64_t>(tiles_x_)) * tile_h_;
    const int x0 = static_cast<int>(sp_idx % static_cast<std::uint64_t>(tiles_x_)) * tile_w_;
    const int ocs = std::min(oc_block_, s.out_channels - oc0);
    const int th = std::min(tile_h_, s.out_h() - y0);
    const int tw = std::min(tile_w_, s.out_w() - x0);

    if (chunk_ < chunks_) {
      // Rotate the K-loop start per warp: real thread blocks drift out of
      // phase, so concurrent consumers of one weight/ifmap stream are at
      // different input-channel chunks and do not co-hit in L2. The set of
      // chunks visited (and hence the traffic) is unchanged.
      const int chunk = static_cast<int>(
          (static_cast<std::uint64_t>(chunk_) + phase_) % static_cast<std::uint64_t>(chunks_));
      const int ic0 = chunk * ic_chunk_;
      const int ics = std::min(ic_chunk_, s.in_channels - ic0);
      // Weight-row segments: row ic holds all output channels contiguously
      // ([ic][oc][k*k] layout), so the oc block is one contiguous span.
      std::vector<sim::Addr>& lines = scratch_lines();
      const std::uint64_t cell = static_cast<std::uint64_t>(s.kernel) * static_cast<std::uint64_t>(s.kernel) * 4;
      for (int ic = ic0; ic < ic0 + ics; ++ic) {
        collect_lines(layer_.weight_base +
                          static_cast<std::uint64_t>(ic) * layer_.weight_row_pitch +
                          static_cast<std::uint64_t>(oc0) * cell,
                      static_cast<std::uint64_t>(ocs) * cell, lines);
      }
      // Input patch: rows [y0*s-p, ...) of width (tw-1)*s + k.
      const int patch_w = (tw - 1) * s.stride + s.kernel;
      const int patch_h = (th - 1) * s.stride + s.kernel;
      const int in_y0 = y0 * s.stride - s.padding;
      const int in_x0 = x0 * s.stride - s.padding;
      for (int ic = ic0; ic < ic0 + ics; ++ic) {
        const sim::Addr channel_base =
            layer_.ifmap_base + static_cast<std::uint64_t>(ic) * layer_.ifmap_channel_pitch;
        for (int r = 0; r < patch_h; ++r) {
          const int y = in_y0 + r;
          if (y < 0 || y >= s.in_h) continue;  // zero padding: no traffic
          const int x_lo = std::max(0, in_x0);
          const int x_hi = std::min(s.in_w, in_x0 + patch_w);
          if (x_lo >= x_hi) continue;
          collect_lines(
              channel_base + (static_cast<std::uint64_t>(y) * static_cast<std::uint64_t>(s.in_w) +
                              static_cast<std::uint64_t>(x_lo)) * 4,
              static_cast<std::uint64_t>(x_hi - x_lo) * 4, lines);
        }
      }
      // Double buffering: the previous chunk's MACs interleave with this
      // chunk's loads (data for them arrived by the wait below), so a warp
      // parked on a full load window always has arithmetic close behind.
      const std::uint64_t macs = static_cast<std::uint64_t>(ocs) * static_cast<std::uint64_t>(th) *
                                 static_cast<std::uint64_t>(tw) * static_cast<std::uint64_t>(ics) *
                                 static_cast<std::uint64_t>(s.kernel) * static_cast<std::uint64_t>(s.kernel);
      const std::uint32_t instrs = macs_to_instructions(macs, options_.overhead);
      if (chunk_ > 0) emit_wait();  // previous chunk's loads have all issued
      emit_interleaved(lines, chunk_ > 0 ? pending_compute_ : 0);
      pending_compute_ = instrs;
      ++chunk_;
      return true;
    }

    // Drain the last chunk, then store the output tile: per (oc, row) a
    // contiguous span of tw floats.
    emit_wait();
    emit_compute(pending_compute_);
    pending_compute_ = 0;
    for (int oc = oc0; oc < oc0 + ocs; ++oc) {
      const sim::Addr channel_base =
          layer_.ofmap_base + static_cast<std::uint64_t>(oc) * layer_.ofmap_channel_pitch;
      for (int r = 0; r < th; ++r) {
        emit_stores_covering(
            channel_base + (static_cast<std::uint64_t>(y0 + r) * static_cast<std::uint64_t>(s.out_w()) +
                            static_cast<std::uint64_t>(x0)) * 4,
            static_cast<std::uint64_t>(tw) * 4);
      }
    }
    chunk_ = 0;
    ++tile_;
    return true;
  }

 private:
  const LayerAddressing& layer_;
  LayerTraceOptions options_;
  std::uint64_t tile_, limit_;
  std::uint64_t phase_ = 0;
  int oc_block_ = 0, tile_w_ = 0, tile_h_ = 0, ic_chunk_ = 0;
  int tiles_oc_ = 0, tiles_y_ = 0, tiles_x_ = 0, chunks_ = 0;
  int chunk_ = 0;
  std::uint32_t pending_compute_ = 0;
};

// ------------------------------------------------------------------ POOL ---

class PoolWarpProgram final : public BufferedWarpProgram {
 public:
  PoolWarpProgram(const LayerAddressing& layer, const LayerTraceOptions& options,
                  std::uint64_t first_tile, std::uint64_t limit)
      : layer_(layer), options_(options), tile_(first_tile), limit_(limit) {}

  /// One tile = one (channel, output row).
  [[nodiscard]] std::uint64_t total_tiles() const {
    return static_cast<std::uint64_t>(layer_.spec.in_channels) *
           static_cast<std::uint64_t>(layer_.spec.out_h());
  }

 protected:
  bool refill() override {
    if (tile_ >= limit_) return false;
    const LayerSpec& s = layer_.spec;
    const int c = static_cast<int>(tile_ / static_cast<std::uint64_t>(s.out_h()));
    const int oy = static_cast<int>(tile_ % static_cast<std::uint64_t>(s.out_h()));

    const sim::Addr in_channel =
        layer_.ifmap_base + static_cast<std::uint64_t>(c) * layer_.ifmap_channel_pitch;
    for (int r = 0; r < s.kernel; ++r) {
      const int y = oy * s.stride + r;
      if (y >= s.in_h) break;
      emit_loads_covering(in_channel + static_cast<std::uint64_t>(y) * static_cast<std::uint64_t>(s.in_w) * 4,
                          static_cast<std::uint64_t>(s.in_w) * 4);
    }
    emit_wait();
    // Real (non-fused) pooling kernels spend ~20-30 thread instructions per
    // output element on index arithmetic, bounds checks and the window
    // reduction; one warp covers 32 outputs per instruction slot.
    const std::uint64_t instrs =
        (static_cast<std::uint64_t>(s.out_w()) *
             static_cast<std::uint64_t>(options_.pool_instrs_per_output) +
         31) / 32;
    emit_compute(static_cast<std::uint32_t>(std::max<std::uint64_t>(1, instrs)));
    const sim::Addr out_channel =
        layer_.ofmap_base + static_cast<std::uint64_t>(c) * layer_.ofmap_channel_pitch;
    emit_stores_covering(out_channel + static_cast<std::uint64_t>(oy) * static_cast<std::uint64_t>(s.out_w()) * 4,
                         static_cast<std::uint64_t>(s.out_w()) * 4);
    ++tile_;
    return true;
  }

 private:
  const LayerAddressing& layer_;
  LayerTraceOptions options_;
  std::uint64_t tile_, limit_;
};

// -------------------------------------------------------------------- FC ---

class FcWarpProgram final : public BufferedWarpProgram {
 public:
  FcWarpProgram(const LayerAddressing& layer, const LayerTraceOptions& options,
                std::uint64_t first_tile, std::uint64_t limit)
      : layer_(layer), options_(options), tile_(first_tile), limit_(limit) {
    out_block_ = std::min(32, layer_.spec.out_features);
    in_chunk_ = std::min(256, layer_.spec.in_features);
    chunks_ = (layer_.spec.in_features + in_chunk_ - 1) / in_chunk_;
  }

  /// One tile = one block of 32 output features (GEMV row block).
  [[nodiscard]] std::uint64_t total_tiles() const {
    return static_cast<std::uint64_t>((layer_.spec.out_features + out_block_ - 1) / out_block_);
  }

 protected:
  bool refill() override {
    if (tile_ >= limit_) return false;
    const LayerSpec& s = layer_.spec;
    const int o0 = static_cast<int>(tile_) * out_block_;
    const int os = std::min(out_block_, s.out_features - o0);

    if (chunk_ < chunks_) {
      const int i0 = chunk_ * in_chunk_;
      const int is = std::min(in_chunk_, s.in_features - i0);
      // Weight rows are input-major: row i holds out_features floats.
      std::vector<sim::Addr>& lines = scratch_lines();
      for (int i = i0; i < i0 + is; ++i) {
        collect_lines(layer_.weight_base +
                          static_cast<std::uint64_t>(i) * layer_.weight_row_pitch +
                          static_cast<std::uint64_t>(o0) * 4,
                      static_cast<std::uint64_t>(os) * 4, lines);
      }
      collect_lines(layer_.ifmap_base + static_cast<std::uint64_t>(i0) * 4,
                    static_cast<std::uint64_t>(is) * 4, lines);
      const std::uint32_t instrs = macs_to_instructions(
          static_cast<std::uint64_t>(os) * static_cast<std::uint64_t>(is), options_.overhead);
      if (chunk_ > 0) emit_wait();
      emit_interleaved(lines, chunk_ > 0 ? pending_compute_ : 0);
      pending_compute_ = instrs;
      ++chunk_;
      return true;
    }

    emit_wait();
    emit_compute(pending_compute_);
    pending_compute_ = 0;
    emit_stores_covering(layer_.ofmap_base + static_cast<std::uint64_t>(o0) * 4,
                         static_cast<std::uint64_t>(os) * 4);
    chunk_ = 0;
    ++tile_;
    return true;
  }

 private:
  const LayerAddressing& layer_;
  LayerTraceOptions options_;
  std::uint64_t tile_, limit_;
  int out_block_ = 0, in_chunk_ = 0, chunks_ = 0;
  int chunk_ = 0;
  std::uint32_t pending_compute_ = 0;
};

/// Loads + stores of tile `tile` alone, replayed on a scratch program.
template <typename Program>
std::uint64_t tile_memory_ops(const LayerAddressing& layer,
                              const LayerTraceOptions& options, std::uint64_t tile) {
  Program program(layer, options, tile, tile + 1);
  std::uint64_t ops = 0;
  while (const auto op = program.next()) {
    if (op->kind == sim::WarpOp::Kind::kLoad || op->kind == sim::WarpOp::Kind::kStore) ++ops;
  }
  return ops;
}

template <typename Program>
LayerWork build(const LayerAddressing& layer, const LayerTraceOptions& options,
                int num_warps, std::uint64_t max_tiles, int chunk_index,
                int num_chunks) {
  // A scratch instance reports the tile count for this geometry.
  const std::uint64_t total = Program(layer, options, 0, 0).total_tiles();
  const std::uint64_t limit = max_tiles ? std::min(max_tiles, total) : total;
  LayerWork work;
  work.total_tiles = total;
  work.simulated_tiles = 0;
  work.programs.reserve(static_cast<std::size_t>(num_warps));
  // Block partition: warp w owns a contiguous tile range of the FULL tile
  // space. Concurrent warps then touch disjoint weight/fmap lines — modeling
  // real kernels that stage tiles through per-block shared memory with little
  // cross-block L2 reuse (lockstep round-robin dealing would give every warp
  // the same lines in the same cycle window, an L2 hit rate no 2011-era conv
  // kernel achieved).
  //
  // Sampling is stratified: when `limit < total`, each warp simulates only
  // the head of its own block, so the simulated slice covers the whole tile
  // space uniformly — a prefix slice would bias toward low channels, which
  // under SEAL are systematically the unencrypted ones.
  for (int w = 0; w < num_warps; ++w) {
    const std::uint64_t begin =
        total * static_cast<std::uint64_t>(w) / static_cast<std::uint64_t>(num_warps);
    const std::uint64_t end =
        total * (static_cast<std::uint64_t>(w) + 1) / static_cast<std::uint64_t>(num_warps);
    // Quota partitioned with the same rounding as the blocks, so a warp with
    // a non-empty block always receives quota (limit == total simulates
    // everything exactly).
    const std::uint64_t quota =
        limit * (static_cast<std::uint64_t>(w) + 1) / static_cast<std::uint64_t>(num_warps) -
        limit * static_cast<std::uint64_t>(w) / static_cast<std::uint64_t>(num_warps);
    const std::uint64_t take = std::min(quota, end - begin);
    // Chunking sub-partitions each warp's [begin, begin + take) block with the
    // same rounding the warp partition uses: chunk c covers
    // [take*c/C, take*(c+1)/C). Summed over c the sub-ranges tile the block
    // exactly, so the chunked run simulates the same tiles in the same
    // per-warp order as the unchunked one, just bracketed into waves.
    const std::uint64_t sub_begin =
        begin + take * static_cast<std::uint64_t>(chunk_index) /
                    static_cast<std::uint64_t>(num_chunks);
    const std::uint64_t sub_end =
        begin + take * (static_cast<std::uint64_t>(chunk_index) + 1) /
                    static_cast<std::uint64_t>(num_chunks);
    if (sub_begin == sub_end) continue;  // empty programs skew SM load balance
    work.simulated_tiles += sub_end - sub_begin;
    work.programs.push_back(
        std::make_unique<Program>(layer, options, sub_begin, sub_end));
  }
  // Cost estimate from the middle tile: tile 0 sits in a padded corner, whose
  // clipped input patch undercounts an interior tile's loads.
  if (work.simulated_tiles) {
    work.memory_ops_estimate =
        tile_memory_ops<Program>(layer, options, total / 2) * work.simulated_tiles;
  }
  return work;
}

}  // namespace

LayerWork make_layer_programs(const core::LayerAddressing& layer, int num_warps,
                              std::uint64_t max_tiles,
                              const LayerTraceOptions& options, int chunk_index,
                              int num_chunks) {
  if (num_chunks < 1 || chunk_index < 0 || chunk_index >= num_chunks) {
    throw std::invalid_argument("chunk_index/num_chunks out of range");
  }
  switch (layer.spec.type) {
    case LayerSpec::Type::kConv:
      return build<ConvWarpProgram>(layer, options, num_warps, max_tiles,
                                    chunk_index, num_chunks);
    case LayerSpec::Type::kPool:
      return build<PoolWarpProgram>(layer, options, num_warps, max_tiles,
                                    chunk_index, num_chunks);
    case LayerSpec::Type::kFc:
      return build<FcWarpProgram>(layer, options, num_warps, max_tiles,
                                  chunk_index, num_chunks);
  }
  throw std::logic_error("unknown layer type");
}

}  // namespace sealdl::workload
