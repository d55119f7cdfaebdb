// Warp-trace generation for CONV, POOL and FC layers from their address-space
// layout (core::LayerAddressing).
//
// CONV uses an implicit-GEMM tiling: each tile covers a block of output
// channels times a spatial patch; the K loop walks input channels in chunks,
// loading the weight-row segments and input-feature-map patch lines, then
// computing. POOL streams channel rows (read window rows, reduce, write one
// output row). FC is a tiled GEMV.
//
// These generators reproduce the *memory behaviour* of the real kernels —
// arithmetic intensity, coalescing, and reuse — which is what the encrypted
// memory system reacts to.
#pragma once

#include <cstdint>
#include <vector>

#include "core/model_layout.hpp"
#include "sim/warp_program.hpp"

namespace sealdl::workload {

/// Tiling knobs; defaults sized for a GTX480-class machine.
struct LayerTraceOptions {
  int oc_block = 32;     ///< output channels per tile
  int tile_w = 32;       ///< output columns per tile (clamped to layer width)
  int tile_positions = 64;  ///< target output positions per tile
  int ic_chunk = 8;      ///< input channels per K-loop step
  double overhead = 0.12;   ///< non-MAC instruction fraction
  int pool_instrs_per_output = 24;  ///< thread instrs per pooled element
  /// Minimum tile count the CONV tiler aims for: small feature maps split
  /// into narrower output-channel blocks / shorter spatial tiles so the grid
  /// still fills the machine, as real kernels do for late-network layers
  /// (at the cost of worse per-tile reuse — also as real kernels do).
  int min_tiles = 240;
};

struct LayerWork {
  std::vector<sim::WarpProgramPtr> programs;
  std::uint64_t total_tiles = 0;      ///< full-layer tile count
  std::uint64_t simulated_tiles = 0;  ///< tiles covered by the programs
  /// Loads + stores the programs will issue, estimated as one replayed
  /// interior tile's memory ops times simulated_tiles (exact for FC). Host
  /// simulation time tracks L2 accesses, so the parallel runner submits its
  /// work units in descending order of this estimate.
  std::uint64_t memory_ops_estimate = 0;
  /// cycles measured on the simulated slice scale to the full layer by
  /// total_tiles / simulated_tiles.
  [[nodiscard]] double scale() const {
    return simulated_tiles
               ? static_cast<double>(total_tiles) / static_cast<double>(simulated_tiles)
               : 1.0;
  }
};

/// Builds programs for one layer. `max_tiles` caps the simulated slice
/// (0 = simulate everything); the cap is rounded to at least one tile per
/// warp when the layer is large enough.
///
/// `chunk_index` / `num_chunks` select one sub-layer work unit: each warp's
/// contiguous tile block is sub-partitioned with the same rounding as the
/// warp partition itself, and chunk c receives per-warp sub-range
/// [take*c/C, take*(c+1)/C). The union of all chunks' programs covers exactly
/// the tiles the unchunked build simulates, each tile once, in the same
/// per-warp order — which is what makes chunked execution a deterministic
/// re-bracketing (wave-at-a-time) of the same tile schedule rather than a
/// different workload. num_chunks == 1 reproduces the unchunked build
/// byte for byte.
LayerWork make_layer_programs(const core::LayerAddressing& layer, int num_warps,
                              std::uint64_t max_tiles = 0,
                              const LayerTraceOptions& options = {},
                              int chunk_index = 0, int num_chunks = 1);

}  // namespace sealdl::workload
