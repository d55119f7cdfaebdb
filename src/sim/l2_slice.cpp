#include "sim/l2_slice.hpp"

#include <algorithm>

namespace sealdl::sim {

L2Slice::L2Slice(const GpuConfig& config, MemoryController* controller)
    : config_(config),
      controller_(controller),
      cache_(static_cast<std::size_t>(config.l2_slice_kb) * 1024, config.l2_assoc,
             config.line_bytes) {}

L2ReadResult L2Slice::read(Cycle now, Addr addr, Waiter waiter, Cycle* fill_ready) {
  const auto lookup = cache_.access(addr, /*mark_dirty=*/false);
  if (lookup.hit) {
    const Cycle ready = now + static_cast<Cycle>(config_.l2_latency);
    hit_busy_until_ = std::max(hit_busy_until_, ready);
    return {true, ready, false};
  }
  if (!mshr_.add(addr, waiter)) {
    return {false, 0, true};  // merged into in-flight fill
  }
  *fill_ready =
      controller_->read_line(now + static_cast<Cycle>(config_.l2_latency), addr);
  return {false, 0, false};
}

void L2Slice::write(Cycle now, Addr addr) {
  const auto lookup = cache_.access(addr, /*mark_dirty=*/true);
  if (lookup.hit) return;
  // Full-line store: allocate without a read-for-ownership fill. When a fill
  // for the line is still pending the store lands now all the same, and
  // complete_fill() finds the line present.
  const auto insert = cache_.insert(addr, /*dirty=*/true);
  if (insert.writeback) {
    controller_->write_line(now + static_cast<Cycle>(config_.l2_latency),
                            *insert.writeback);
  }
}

std::span<const Waiter> L2Slice::complete_fill(Cycle now, Addr addr) {
  const std::span<const Waiter> waiters = mshr_.take(addr);
  // Leaves the line alone if a racing full-line store already installed it.
  const auto insert = cache_.insert(addr, /*dirty=*/false);
  if (insert.writeback) controller_->write_line(now, *insert.writeback);
  return waiters;
}

void L2Slice::flush(Cycle now) {
  for (const Addr victim : cache_.flush_dirty()) {
    controller_->write_line(now, victim);
  }
}

}  // namespace sealdl::sim
