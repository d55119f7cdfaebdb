#include "sim/sm_core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace sealdl::sim {

SmCore::SmCore(const GpuConfig& config, int sm_id, DelayQueue<MemRequest>* to_l2)
    : config_(config), sm_id_(sm_id), to_l2_(to_l2) {
  warps_.resize(static_cast<std::size_t>(config.warps_per_sm));
  ready_.resize(std::bit_ceil(std::max<std::size_t>(warps_.size(), 1)));
  ready_mask_ = ready_.size() - 1;
  window_wait_.reserve(warps_.size());
}

void SmCore::load_programs(std::vector<WarpProgramPtr> programs) {
  assert(programs.size() <= warps_.size());
  live_warps_ = 0;
  barrier_waiters_ = 0;
  ready_head_ = 0;
  ready_size_ = 0;
  window_wait_.clear();
  sm_outstanding_ = 0;
  launch_count_ = 0;
  next_launch_ = 0;
  next_launch_cycle_ = 0;
  for (std::size_t w = 0; w < warps_.size(); ++w) {
    WarpState& warp = warps_[w];
    warp.op.reset();
    warp.outstanding_loads = 0;
    if (w < programs.size() && programs[w]) {
      warp.program = std::move(programs[w]);
      warp.wait = WarpWait::kLoads;  // parked until its staggered launch
      ++live_warps_;
      ++launch_count_;
    } else {
      warp.program.reset();
      warp.wait = WarpWait::kDone;
    }
  }
}

bool SmCore::prepare(int idx, WarpState& warp) {
  (void)idx;
  for (;;) {
    if (!warp.op) {
      warp.op = warp.program->next();
      if (!warp.op) {
        warp.wait = WarpWait::kDone;
        --live_warps_;
        return false;
      }
    }
    if (warp.op->kind == WarpOp::Kind::kWaitLoads) {
      const int threshold = static_cast<int>(warp.op->count);
      if (warp.outstanding_loads > threshold) {
        warp.wait = WarpWait::kLoads;  // re-queued by on_load_return()
        warp.wait_threshold = threshold;
        ++barrier_parks_;
        ++barrier_waiters_;
        return false;
      }
      warp.op.reset();  // satisfied barrier costs no issue slot
      continue;
    }
    return true;
  }
}

int SmCore::tick(Cycle now) {
  // Staggered launch: warps enter the ready ring warp_start_stagger cycles
  // apart, like thread blocks raining onto an SM — but work-conserving: when
  // the SM is starved of ready warps (short kernels, memory-bound phases)
  // the next warp launches immediately.
  while (next_launch_ < launch_count_ &&
         (now >= next_launch_cycle_ || ready_size_ < 8)) {
    warps_[static_cast<std::size_t>(next_launch_)].wait = WarpWait::kReady;
    ready_push(next_launch_);
    ++next_launch_;
    next_launch_cycle_ = now + static_cast<Cycle>(config_.warp_start_stagger);
  }
  int issued = 0;
  // Bound the scan: each ready warp is inspected at most once per cycle.
  std::size_t inspected = 0;
  const std::size_t ready_at_entry = ready_size_;
  while (issued < config_.issue_width && ready_size_ != 0 &&
         inspected < ready_at_entry) {
    ++inspected;
    const int idx = ready_pop();
    WarpState& warp = warps_[static_cast<std::size_t>(idx)];
    if (!prepare(idx, warp)) continue;  // done or barrier-parked

    WarpOp& op = *warp.op;
    switch (op.kind) {
      case WarpOp::Kind::kCompute:
        ++compute_issued_;
        if (--op.count == 0) warp.op.reset();
        break;
      case WarpOp::Kind::kLoad:
        if (sm_outstanding_ >= config_.max_outstanding_loads_per_sm) {
          warp.wait = WarpWait::kWindow;
          window_wait_.push_back(idx);
          ++window_stalls_;
          continue;  // try another warp this cycle
        }
        to_l2_->push(now, MemRequest{op.addr, false, sm_id_, idx});
        ++warp.outstanding_loads;
        ++sm_outstanding_;
        ++loads_issued_;
        warp.op.reset();
        break;
      case WarpOp::Kind::kStore:
        to_l2_->push(now, MemRequest{op.addr, true, sm_id_, -1});
        ++stores_issued_;
        warp.op.reset();
        break;
      case WarpOp::Kind::kWaitLoads:
        continue;  // unreachable: prepare() consumes barriers
    }
    ++issued;
    ++instructions_;
    ready_push(idx);  // still runnable: back of the round-robin ring
  }
  return issued;
}

void SmCore::on_load_return(int warp_id) {
  assert(warp_id >= 0 && static_cast<std::size_t>(warp_id) < warps_.size());
  WarpState& warp = warps_[static_cast<std::size_t>(warp_id)];
  assert(warp.outstanding_loads > 0);
  --warp.outstanding_loads;
  --sm_outstanding_;
  if (warp.wait == WarpWait::kLoads &&
      warp.outstanding_loads <= warp.wait_threshold) {
    warp.wait = WarpWait::kReady;
    ready_push(warp_id);
    --barrier_waiters_;
  }
  // A free window slot may unblock parked warps; let them re-check.
  if (!window_wait_.empty()) {
    for (const int idx : window_wait_) {
      warps_[static_cast<std::size_t>(idx)].wait = WarpWait::kReady;
      ready_push(idx);
    }
    window_wait_.clear();
  }
}

}  // namespace sealdl::sim
