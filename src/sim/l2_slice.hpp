// One per-channel slice of the shared L2 cache, with MSHR-style miss merging.
//
// Reads that hit are answered after the slice latency; misses are merged per
// line (sim/mshr_table.hpp) and forwarded to the channel's memory
// controller. Stores are write-back write-allocate; a full-line store
// allocates without a fill (DL kernels write whole coalesced lines).
#pragma once

#include <cstdint>
#include <span>

#include "sim/cache.hpp"
#include "sim/gpu_config.hpp"
#include "sim/mem_controller.hpp"
#include "sim/mshr_table.hpp"
#include "sim/request.hpp"

namespace sealdl::sim {

/// Result of presenting a read to the slice.
struct L2ReadResult {
  bool hit = false;
  /// Valid when `hit`: cycle the response leaves the slice.
  Cycle ready = 0;
  /// True when the read was merged into an already-pending fill (no new
  /// DRAM request was issued).
  bool merged = false;
};

class L2Slice {
 public:
  L2Slice(const GpuConfig& config, MemoryController* controller);

  /// Presents a load for `addr` arriving at `now`. On a miss the waiter is
  /// registered and fill_ready reports when the line returns from DRAM.
  L2ReadResult read(Cycle now, Addr addr, Waiter waiter, Cycle* fill_ready);

  /// Presents a full-line store arriving at `now`.
  void write(Cycle now, Addr addr);

  /// Completes the fill for `addr`: installs the line, performs any dirty
  /// writeback, and returns the waiters to notify in arrival order. The span
  /// stays valid until the slice's next call.
  std::span<const Waiter> complete_fill(Cycle now, Addr addr);

  /// Flushes dirty lines to the controller (end of run drain).
  void flush(Cycle now);

  [[nodiscard]] const util::HitRate& hit_rate() const { return cache_.hit_rate(); }

  // Cycle-attribution profiler probes. The hit window is a span prefix: a
  // hit answered at `now` occupies the slice until now + l2_latency, and no
  // new hit can start during a run-loop fast-forward.
  [[nodiscard]] Cycle hit_busy_until() const { return hit_busy_until_; }
  /// True while at least one MSHR entry awaits its DRAM fill.
  [[nodiscard]] bool has_pending_fills() const { return !mshr_.empty(); }

 private:
  const GpuConfig& config_;
  MemoryController* controller_;
  SetAssocCache cache_;
  MshrTable mshr_;
  Cycle hit_busy_until_ = 0;
};

}  // namespace sealdl::sim
