#include "workload/gemm_trace.hpp"

#include <stdexcept>
#include <string>

namespace sealdl::workload {

namespace {

class GemmWarpProgram final : public BufferedWarpProgram {
 public:
  GemmWarpProgram(const GemmSpec& spec, std::uint64_t first_tile,
                  std::uint64_t tile_stride, std::uint64_t tile_limit)
      : spec_(spec),
        tile_(first_tile),
        stride_(tile_stride),
        limit_(tile_limit),
        tiles_x_(static_cast<std::uint64_t>((spec.n + 31) / 32)) {
    // K-loop phase rotation per C-tile row block: warps in the same row block
    // stay in phase (they genuinely share A-tile lines through L2, as
    // co-scheduled GEMM blocks do), while different row blocks drift apart so
    // B tiles are not multiply counted as on-chip hits.
    std::uint64_t h = first_tile / tiles_x_;
    phase_ = (h * 0x9E3779B97F4A7C15ULL) >> 33;
  }

 protected:
  bool refill() override {
    if (tile_ >= limit_) return false;
    const std::uint64_t tile_row = tile_ / tiles_x_;
    const std::uint64_t tile_col = tile_ % tiles_x_;
    const std::uint64_t m0 = tile_row * 32, n0 = tile_col * 32;
    const auto rows = static_cast<std::uint64_t>(std::min(32, spec_.m - static_cast<int>(m0)));
    const auto cols = static_cast<std::uint64_t>(std::min(32, spec_.n - static_cast<int>(n0)));

    const std::uint64_t chunks = (static_cast<std::uint64_t>(spec_.k) + 31) / 32;
    if (chunk_ < chunks) {
      const std::uint64_t k0 = ((chunk_ + phase_) % chunks) * 32;
      const auto depth = std::min<std::uint64_t>(32, static_cast<std::uint64_t>(spec_.k) - k0);
      // A tile: `rows` row segments of `depth` floats.
      std::vector<sim::Addr>& lines = scratch_lines();
      for (std::uint64_t r = 0; r < rows; ++r) {
        collect_lines(
            spec_.a_base + ((m0 + r) * static_cast<std::uint64_t>(spec_.k) + k0) * 4,
            depth * 4, lines);
      }
      // B tile: `depth` row segments of `cols` floats.
      for (std::uint64_t r = 0; r < depth; ++r) {
        collect_lines(
            spec_.b_base + ((k0 + r) * static_cast<std::uint64_t>(spec_.n) + n0) * 4,
            cols * 4, lines);
      }
      // Double buffering: the previous chunk's MACs interleave with this
      // chunk's loads, as compiled GEMM kernels schedule them.
      const std::uint32_t instrs = macs_to_instructions(rows * cols * depth);
      if (chunk_ > 0) emit_wait();
      emit_interleaved(lines, chunk_ > 0 ? pending_compute_ : 0);
      pending_compute_ = instrs;
      ++chunk_;
      return true;
    }

    // K loop finished: drain, store the C tile, move to the next tile.
    emit_wait();
    emit_compute(pending_compute_);
    pending_compute_ = 0;
    for (std::uint64_t r = 0; r < rows; ++r) {
      emit_stores_covering(
          spec_.c_base + ((m0 + r) * static_cast<std::uint64_t>(spec_.n) + n0) * 4,
          cols * 4);
    }
    chunk_ = 0;
    tile_ += stride_;
    return true;
  }

 private:
  GemmSpec spec_;
  std::uint64_t tile_;
  std::uint64_t stride_;
  std::uint64_t limit_;
  std::uint64_t tiles_x_;
  std::uint64_t phase_ = 0;
  std::uint64_t chunk_ = 0;
  std::uint32_t pending_compute_ = 0;
};

}  // namespace

std::vector<sim::WarpProgramPtr> make_gemm_programs(const GemmSpec& spec,
                                                    int num_warps,
                                                    std::uint64_t max_tiles) {
  if (spec.m <= 0 || spec.n <= 0 || spec.k <= 0) {
    throw std::invalid_argument("gemm: dimensions (--dim) must be positive, got " +
                                std::to_string(spec.m) + "x" + std::to_string(spec.n) +
                                "x" + std::to_string(spec.k));
  }
  const std::uint64_t limit =
      max_tiles ? std::min(max_tiles, spec.total_tiles()) : spec.total_tiles();
  std::vector<sim::WarpProgramPtr> programs;
  programs.reserve(static_cast<std::size_t>(num_warps));
  for (int w = 0; w < num_warps; ++w) {
    programs.push_back(std::make_unique<GemmWarpProgram>(
        spec, static_cast<std::uint64_t>(w), static_cast<std::uint64_t>(num_warps),
        limit));
  }
  return programs;
}

}  // namespace sealdl::workload
