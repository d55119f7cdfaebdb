// Tiled GEMM workload (paper §II-B: "matrix multiplication computation that
// is the most common operation in DL algorithms", Figure 1).
//
// C[M,N] = A[M,K] * B[K,N], row-major float32. Each warp computes 32x32
// output tiles, looping over K in chunks of 32: it loads the A and B
// sub-tiles (one coalesced 128-byte line per 32-float row segment),
// barriers, computes 32*32*32 MACs, and finally stores its C tile.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/request.hpp"
#include "sim/warp_program.hpp"
#include "workload/trace_common.hpp"

namespace sealdl::workload {

struct GemmSpec {
  int m = 1024;
  int n = 1024;
  int k = 1024;
  sim::Addr a_base = 0;
  sim::Addr b_base = 0;
  sim::Addr c_base = 0;

  [[nodiscard]] std::uint64_t total_tiles() const {
    return static_cast<std::uint64_t>((m + 31) / 32) *
           static_cast<std::uint64_t>((n + 31) / 32);
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return 4ULL * (static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(k) +
                   static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(n) +
                   static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n));
  }
};

/// Builds `num_warps` persistent-warp programs covering at most `max_tiles`
/// output tiles (0 = all); tiles are dealt round-robin. Throws
/// std::invalid_argument unless every dimension is positive.
std::vector<sim::WarpProgramPtr> make_gemm_programs(const GemmSpec& spec,
                                                    int num_warps,
                                                    std::uint64_t max_tiles = 0);

}  // namespace sealdl::workload
