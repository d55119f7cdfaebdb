#include "sim/mem_controller.hpp"

#include <algorithm>

#include "sim/bus_probe.hpp"

namespace sealdl::sim {

MemoryController::MemoryController(const GpuConfig& config,
                                   const SecureMap* secure_map)
    : config_(config),
      model_(config.scheme->model),
      protection_(*config.scheme, secure_map),
      dram_(config.dram_bytes_per_cycle_per_channel(),
            static_cast<Cycle>(config.dram_latency)),
      aes_(config.aes_bytes_per_cycle(),
           static_cast<Cycle>(config.engine.latency_cycles)) {
  if (model_->uses_counter_cache()) {
    counter_cache_.emplace(static_cast<std::size_t>(config.counter_cache_kb) * 1024,
                           config.counter_cache_assoc, config.line_bytes);
  }
}

bool MemoryController::needs_encryption(Addr addr) const {
  return protection_.line_is_secure(addr, config_.line_bytes);
}

Addr MemoryController::counter_line_addr(Addr data_addr) const {
  const Addr counter_index = data_addr / static_cast<Addr>(config_.line_bytes);
  const Addr byte_addr =
      kCounterRegionBase +
      counter_index * static_cast<Addr>(model_->counter_bytes_per_line(config_));
  return byte_addr & ~static_cast<Addr>(config_.line_bytes - 1);
}

Cycle MemoryController::dram_schedule(Cycle now, std::uint64_t bytes) {
  return dram_.schedule(now, bytes);
}

Cycle MemoryController::aes_schedule(Cycle now, std::uint64_t bytes) {
  return aes_.schedule(now, bytes);
}

Cycle MemoryController::fetch_counter(Cycle now, Addr addr, bool for_write) {
  const Addr cline = counter_line_addr(addr);
  const auto result = counter_cache_->access(cline, /*mark_dirty=*/for_write);
  if (result.hit) return now;  // counter available immediately from on-chip SRAM

  // Miss: fetch the counter block from DRAM through this same channel.
  const auto bytes = static_cast<std::uint64_t>(config_.line_bytes);
  counter_traffic_bytes_ += bytes;
  counter_fill_bytes_ += bytes;
  const Cycle done = dram_.schedule(now, bytes);
  if (probe_) probe_->on_transfer(cline, static_cast<std::uint32_t>(bytes), false, false);
  const auto insert = counter_cache_->insert(cline, /*dirty=*/for_write);
  if (insert.writeback) {
    counter_traffic_bytes_ += bytes;
    counter_writeback_bytes_ += bytes;
    dram_.schedule(done, bytes);
    if (probe_) {
      probe_->on_transfer(*insert.writeback, static_cast<std::uint32_t>(bytes), true, false);
    }
  }
  counter_busy_until_ = std::max(counter_busy_until_, dram_busy_until());
  return done;
}

Cycle MemoryController::read_line(Cycle now, Addr addr) {
  const auto bytes = static_cast<std::uint64_t>(config_.line_bytes);
  read_bytes_ += bytes;
  const bool secure = needs_encryption(addr);
  if (probe_) probe_->on_transfer(addr, static_cast<std::uint32_t>(bytes), false, secure);

  if (!secure) {
    bypassed_bytes_ += protection_.encrypts_any() ? bytes : 0;
    return dram_.schedule(now, bytes);
  }

  encrypted_bytes_ += bytes;
  return model_->read_secure(*this, now, addr, bytes);
}

Cycle MemoryController::write_line(Cycle now, Addr addr) {
  const auto bytes = static_cast<std::uint64_t>(config_.line_bytes);
  write_bytes_ += bytes;
  const bool secure = needs_encryption(addr);
  if (probe_) probe_->on_transfer(addr, static_cast<std::uint32_t>(bytes), true, secure);

  if (!secure) {
    bypassed_bytes_ += protection_.encrypts_any() ? bytes : 0;
    return dram_.schedule(now, bytes);
  }

  encrypted_bytes_ += bytes;
  return model_->write_secure(*this, now, addr, bytes);
}

void MemoryController::accumulate(SimStats& stats) const {
  stats.dram_read_bytes += read_bytes_;
  stats.dram_write_bytes += write_bytes_;
  stats.encrypted_bytes += encrypted_bytes_;
  stats.bypassed_bytes += bypassed_bytes_;
  stats.aes_busy_cycles += aes_busy_cycles();  // engine-summed, per the field doc
  stats.dram_busy_cycles += dram_.busy_cycles();
  stats.counter_traffic_bytes += counter_traffic_bytes_;
  stats.counter_fill_bytes += counter_fill_bytes_;
  stats.counter_writeback_bytes += counter_writeback_bytes_;
  stats.counter_flush_bytes += counter_flush_bytes_;
  if (counter_cache_) {
    stats.counter_hits += counter_cache_->hit_rate().hits;
    stats.counter_misses +=
        counter_cache_->hit_rate().total - counter_cache_->hit_rate().hits;
  }
}

Cycle MemoryController::flush(Cycle now) {
  if (!counter_cache_) return now;
  const auto bytes = static_cast<std::uint64_t>(config_.line_bytes);
  Cycle drained = now;
  for (const Addr cline : counter_cache_->flush_dirty()) {
    counter_traffic_bytes_ += bytes;
    counter_flush_bytes_ += bytes;
    drained = std::max(drained, dram_.schedule(now, bytes));
    if (probe_) probe_->on_transfer(cline, static_cast<std::uint32_t>(bytes), true, false);
  }
  counter_busy_until_ = std::max(counter_busy_until_, dram_busy_until());
  return drained;
}

}  // namespace sealdl::sim
