// One streaming multiprocessor: resident warps scheduled from an explicit
// ready queue with a bounded in-flight load window (MSHR model).
//
// Readiness is event-driven: a warp leaves the ready queue when it blocks on
// a load barrier or a full load window, and re-enters when a load response
// arrives. tick() therefore costs O(issue_width), not O(warps), which keeps
// memory-bound phases (the interesting ones for this paper) fast to simulate.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/gpu_config.hpp"
#include "sim/pipes.hpp"
#include "sim/request.hpp"
#include "sim/warp_program.hpp"

namespace sealdl::sim {

class SmCore {
 public:
  /// `to_l2` is the interconnect queue memory requests are pushed into; it is
  /// borrowed and must outlive the core. A direct queue pointer (rather than
  /// a std::function sink) keeps the per-request send a plain inlined ring
  /// push — the issue loop is the simulator's hottest path.
  SmCore(const GpuConfig& config, int sm_id, DelayQueue<MemRequest>* to_l2);

  /// Assigns programs to warps; warps beyond programs.size() stay idle.
  void load_programs(std::vector<WarpProgramPtr> programs);

  /// Issues up to issue_width warp instructions; returns the number issued.
  int tick(Cycle now);

  /// Called when a line load for `warp_id` returns from the memory system.
  void on_load_return(int warp_id);

  [[nodiscard]] bool all_done() const { return live_warps_ == 0; }
  [[nodiscard]] std::uint64_t warp_instructions() const { return instructions_; }
  [[nodiscard]] int outstanding_loads() const { return sm_outstanding_; }

  // Issue/stall breakdown (telemetry): instructions by kind plus the two ways
  // a warp leaves the ready ring without issuing.
  [[nodiscard]] std::uint64_t compute_issued() const { return compute_issued_; }
  [[nodiscard]] std::uint64_t loads_issued() const { return loads_issued_; }
  [[nodiscard]] std::uint64_t stores_issued() const { return stores_issued_; }
  [[nodiscard]] std::uint64_t window_stalls() const { return window_stalls_; }
  [[nodiscard]] std::uint64_t barrier_parks() const { return barrier_parks_; }

  // Instantaneous wait-state census (cycle-attribution profiler): how many
  // launched warps are currently parked on a WaitLoads barrier vs. the full
  // per-SM load window. Pre-launch warps count in neither (they are idle).
  [[nodiscard]] int barrier_waiters() const { return barrier_waiters_; }
  [[nodiscard]] int window_waiters() const {
    return static_cast<int>(window_wait_.size());
  }

  /// True if at least one warp could issue right now (used by the simulator's
  /// idle-cycle fast-forward).
  [[nodiscard]] bool has_ready_warp() const { return ready_size_ != 0; }

  /// True while loaded warps have not yet entered the ready ring. The launch
  /// backfill clause in tick() can start one of them on ANY cycle (whenever
  /// the ready ring runs shallow), so cycles may only be fast-forwarded when
  /// no launches are pending on any SM.
  [[nodiscard]] bool launches_pending() const {
    return next_launch_ < launch_count_;
  }

  /// True when tick() could change state at `now`: a warp is ready to issue
  /// or a launch is pending. When false, tick() is a provable no-op (the
  /// launch loop has nothing to start and the issue loop nothing to scan), so
  /// the fast path skips the call without perturbing any counter or census.
  [[nodiscard]] bool may_issue() const {
    return ready_size_ != 0 || launches_pending();
  }

  /// Cycle of the next staggered warp launch, or Cycle max when none pend.
  [[nodiscard]] Cycle next_launch_cycle() const {
    return next_launch_ < launch_count_ ? next_launch_cycle_
                                        : ~static_cast<Cycle>(0);
  }

 private:
  enum class WarpWait : std::uint8_t {
    kReady,       ///< in the ready queue
    kLoads,       ///< blocked on a WaitLoads barrier
    kWindow,      ///< blocked on the full per-SM load window
    kDone,
  };

  struct WarpState {
    WarpProgramPtr program;
    std::optional<WarpOp> op;  ///< current (possibly partially retired) op
    int outstanding_loads = 0;
    int wait_threshold = 0;    ///< for kLoads: resume when outstanding <= this
    WarpWait wait = WarpWait::kDone;
  };

  /// Refills warp.op and resolves satisfied barriers; marks the warp done or
  /// barrier-blocked as needed. Returns true if the warp can issue now.
  bool prepare(int idx, WarpState& warp);

  // The ready ring. A warp is queued at most once: it is popped before it
  // issues and pushed back only on leaving a wait state (or after issuing),
  // so a ring of at least warps_per_sm slots never overflows.
  void ready_push(int idx) {
    assert(ready_size_ < warps_.size());
    ready_[(ready_head_ + ready_size_) & ready_mask_] = idx;
    ++ready_size_;
  }
  int ready_pop() {
    const int idx = ready_[ready_head_];
    ready_head_ = (ready_head_ + 1) & ready_mask_;
    --ready_size_;
    return idx;
  }

  const GpuConfig& config_;
  int sm_id_;
  DelayQueue<MemRequest>* to_l2_;
  std::vector<WarpState> warps_;
  std::vector<int> ready_;       ///< round-robin issue order (power-of-two ring)
  std::size_t ready_head_ = 0;
  std::size_t ready_size_ = 0;
  std::size_t ready_mask_ = 0;
  std::vector<int> window_wait_; ///< warps parked on a full load window
  int next_launch_ = 0;          ///< warps [next_launch_, ...) not yet started
  Cycle next_launch_cycle_ = 0;
  int launch_count_ = 0;         ///< total warps to launch
  int live_warps_ = 0;
  int barrier_waiters_ = 0;  ///< launched warps in kLoads (see prepare())
  int sm_outstanding_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t compute_issued_ = 0;
  std::uint64_t loads_issued_ = 0;
  std::uint64_t stores_issued_ = 0;
  std::uint64_t window_stalls_ = 0;
  std::uint64_t barrier_parks_ = 0;
};

}  // namespace sealdl::sim
