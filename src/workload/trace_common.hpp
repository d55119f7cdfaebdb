// Shared machinery for workload trace generators.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/request.hpp"
#include "sim/warp_program.hpp"

namespace sealdl::workload {

/// Base class for generators: subclasses emit the next natural group of ops
/// (one tile chunk) into the buffer; the simulator drains it one op at a time.
///
/// The buffer is a flat vector drained by index: refills always land in an
/// empty buffer, so instead of a deque's chunk map we clear and re-fill one
/// contiguous allocation that sticks at the largest refill ever produced.
/// next() is called once per issued op — the second-hottest path after the
/// SM issue loop — and compiles down to a bounds check and a copy.
class BufferedWarpProgram : public sim::WarpProgram {
 public:
  std::optional<sim::WarpOp> next() final {
    while (head_ == buffer_.size()) {
      buffer_.clear();
      head_ = 0;
      if (!refill()) return std::nullopt;
    }
    return buffer_[head_++];
  }

 protected:
  /// Emits more ops into the buffer; returns false when the warp is done.
  virtual bool refill() = 0;

  void emit_load(sim::Addr addr) {
    buffer_.push_back({sim::WarpOp::Kind::kLoad, addr, 1});
    ++loads_since_mark_;
  }

  /// Number of loads emitted since the last call; used to size the
  /// double-buffering barrier threshold to "the prefetched chunk's loads".
  std::uint32_t take_load_count() {
    const std::uint32_t n = loads_since_mark_;
    loads_since_mark_ = 0;
    return n;
  }
  void emit_store(sim::Addr addr) {
    buffer_.push_back({sim::WarpOp::Kind::kStore, addr, 1});
  }
  /// Barrier: stall until at most `threshold` of this warp's loads remain in
  /// flight. threshold 0 waits for everything; a prefetched chunk's load
  /// count expresses double buffering.
  void emit_wait(std::uint32_t threshold = 0) {
    buffer_.push_back({sim::WarpOp::Kind::kWaitLoads, 0, threshold});
  }
  void emit_compute(std::uint32_t count) {
    if (count) buffer_.push_back({sim::WarpOp::Kind::kCompute, 0, count});
  }

  /// Emits one coalesced load per cache line covering [addr, addr+bytes).
  void emit_loads_covering(sim::Addr addr, std::uint64_t bytes) {
    const sim::Addr first = addr & ~static_cast<sim::Addr>(127);
    const sim::Addr last = (addr + bytes - 1) & ~static_cast<sim::Addr>(127);
    for (sim::Addr line = first; line <= last; line += 128) emit_load(line);
  }

  /// Collects the line addresses covering [addr, addr+bytes) without
  /// emitting them (for interleaved emission).
  static void collect_lines(sim::Addr addr, std::uint64_t bytes,
                            std::vector<sim::Addr>& out) {
    const sim::Addr first = addr & ~static_cast<sim::Addr>(127);
    const sim::Addr last = (addr + bytes - 1) & ~static_cast<sim::Addr>(127);
    for (sim::Addr line = first; line <= last; line += 128) out.push_back(line);
  }

  /// The calling thread's line list, emptied: the K-loop refills collect
  /// into it instead of allocating a fresh vector per chunk. One list per
  /// thread, not per program, because a thread drains one program at a time
  /// and hundreds of programs are alive per work unit.
  static std::vector<sim::Addr>& scratch_lines() {
    thread_local std::vector<sim::Addr> lines;
    lines.clear();
    return lines;
  }

  /// Emits `lines` as loads interleaved with `compute` instructions, a few
  /// loads per compute slice. This is how compiled kernels actually schedule:
  /// next-tile loads are hoisted between MAC bundles, so a warp stalled on a
  /// full load window still has independent arithmetic behind only a small
  /// load group, not behind the whole tile's loads.
  void emit_interleaved(const std::vector<sim::Addr>& lines,
                        std::uint32_t compute, int loads_per_group = 8) {
    if (lines.empty()) {
      emit_compute(compute);
      return;
    }
    const std::size_t groups =
        (lines.size() + static_cast<std::size_t>(loads_per_group) - 1) /
        static_cast<std::size_t>(loads_per_group);
    std::size_t next_line = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t end = std::min(
          lines.size(), next_line + static_cast<std::size_t>(loads_per_group));
      for (; next_line < end; ++next_line) emit_load(lines[next_line]);
      emit_compute(static_cast<std::uint32_t>(compute / groups) +
                   (g < compute % groups ? 1u : 0u));
    }
  }

  /// Same for stores.
  void emit_stores_covering(sim::Addr addr, std::uint64_t bytes) {
    const sim::Addr first = addr & ~static_cast<sim::Addr>(127);
    const sim::Addr last = (addr + bytes - 1) & ~static_cast<sim::Addr>(127);
    for (sim::Addr line = first; line <= last; line += 128) emit_store(line);
  }

 private:
  std::vector<sim::WarpOp> buffer_;
  std::size_t head_ = 0;  ///< next() reads buffer_[head_..); refill resets
  std::uint32_t loads_since_mark_ = 0;
};

/// Converts a MAC count to warp compute instructions: 32 lanes per warp plus
/// a fixed fraction of address/loop-overhead instructions.
inline std::uint32_t macs_to_instructions(std::uint64_t macs,
                                          double overhead = 0.12) {
  const double warp_ops = static_cast<double>(macs) / 32.0 * (1.0 + overhead);
  const auto n = static_cast<std::uint64_t>(warp_ops + 0.999);
  return n == 0 ? 1 : static_cast<std::uint32_t>(n);
}

}  // namespace sealdl::workload
