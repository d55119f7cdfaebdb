// One GDDR5 channel's memory controller, with an optional in-line AES engine
// and (for counter-family schemes) an on-chip counter cache.
//
// Timing is modeled by resource reservation (see sim/pipes.hpp): the
// controller books occupancy on its DRAM channel pipe and AES pipe and
// reports the completion cycle of each read. Writes are posted — they consume
// bandwidth but nobody waits for them.
//
// The *shape* of the secure dataflow — how a protected line's DRAM service,
// AES work, and metadata fetch serialize — follows the cipher family of the
// config's registry entry (sim/scheme_registry.hpp):
//   Direct  read : DRAM -> AES decrypt (serial)      write: AES -> DRAM
//   Counter read : DRAM || (counter fetch -> AES pad), XOR
//           write: counter fetch -> AES pad, XOR -> DRAM
// On a counter-cache hit the pad generation overlaps the data fetch, so
// counter mode hides AES latency but still pays AES occupancy (bandwidth) and
// extra DRAM traffic for counter-block fills/writebacks — the reason the paper
// finds Counter no faster than Direct on a bandwidth-starved GPU (§II-B).
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>

#include "sim/cache.hpp"
#include "sim/gpu_config.hpp"
#include "sim/pipes.hpp"
#include "sim/request.hpp"
#include "sim/scheme_registry.hpp"
#include "sim/secure_map.hpp"
#include "sim/sim_stats.hpp"

namespace sealdl::sim {

class BusProbe;

/// Counter blocks live in a reserved high region of the physical address
/// space, far above any SecureHeap allocation (see core/secure_heap.hpp).
/// Exposed so bus-traffic auditors can classify counter-metadata transfers
/// by address alone.
inline constexpr Addr kCounterRegionBase = 0x4000'0000'0000ULL;

class MemoryController {
 public:
  MemoryController(const GpuConfig& config, const SecureMap* secure_map);

  /// Schedules a line read arriving at the controller at `now`; returns the
  /// cycle at which the (decrypted) line is available to send back on-chip.
  Cycle read_line(Cycle now, Addr addr);

  /// Schedules a posted line write arriving at `now`. Returns the cycle the
  /// write finishes draining (stats/ordering only; callers need not wait).
  Cycle write_line(Cycle now, Addr addr);

  /// Whether traffic to `addr` pays for encryption under this configuration.
  [[nodiscard]] bool needs_encryption(Addr addr) const;

  /// Adds this controller's counters into `stats`.
  void accumulate(SimStats& stats) const;

  /// Flushes dirty counter-cache lines to DRAM (end of run, or an explicit
  /// mid-run drain point). Returns the cycle the last flushed writeback
  /// finishes draining on the DRAM channel — `now` when nothing was dirty —
  /// so callers can fold the drain into the run's final cycle instead of
  /// silently ending the clock before the bus goes quiet. Flushed counter
  /// lines are counted in counter_traffic_bytes() and reported to the bus
  /// probe as plaintext writes, keeping
  ///   dram_read_bytes + dram_write_bytes + counter_traffic_bytes
  /// equal to the byte total a bus probe observes.
  Cycle flush(Cycle now);

  void set_probe(BusProbe* probe) { probe_ = probe; }

  // Per-controller telemetry accessors (pull-based; nothing extra is tracked).
  [[nodiscard]] std::uint64_t read_bytes() const { return read_bytes_; }
  [[nodiscard]] std::uint64_t write_bytes() const { return write_bytes_; }
  [[nodiscard]] std::uint64_t encrypted_bytes() const { return encrypted_bytes_; }
  [[nodiscard]] std::uint64_t bypassed_bytes() const { return bypassed_bytes_; }
  [[nodiscard]] std::uint64_t counter_traffic_bytes() const {
    return counter_traffic_bytes_;
  }
  // Metadata-traffic decomposition, reconciled by scheme.metadata:
  //   counter_traffic == fills + writebacks + flushes, fills == misses x line.
  [[nodiscard]] std::uint64_t counter_fill_bytes() const {
    return counter_fill_bytes_;
  }
  [[nodiscard]] std::uint64_t counter_writeback_bytes() const {
    return counter_writeback_bytes_;
  }
  [[nodiscard]] std::uint64_t counter_flush_bytes() const {
    return counter_flush_bytes_;
  }
  [[nodiscard]] double dram_busy_cycles() const { return dram_.busy_cycles(); }
  /// AES occupancy summed over this controller's engines: the pipe models
  /// `engines_per_controller` engines as one aggregate-bandwidth resource, so
  /// its busy time is scaled back up to engine-cycles of work.
  [[nodiscard]] double aes_busy_cycles() const {
    return aes_.busy_cycles() * config_.engines_per_controller;
  }
  /// Null when the scheme has no counter cache.
  [[nodiscard]] const util::HitRate* counter_hit_rate() const {
    return counter_cache_ ? &counter_cache_->hit_rate() : nullptr;
  }

  // Busy-window edges for the cycle-attribution profiler. A reservation
  // pipe is occupied from "now" until its next_free cycle, so each window
  // is a prefix of any span that starts at or after the last schedule()
  // call — the property the profiler's exact partition relies on.
  [[nodiscard]] Cycle dram_busy_until() const {
    return static_cast<Cycle>(std::ceil(dram_.next_free()));
  }
  [[nodiscard]] Cycle aes_busy_until() const {
    return static_cast<Cycle>(std::ceil(aes_.next_free()));
  }
  /// Last cycle the DRAM pipe is known to be moving counter blocks (fills,
  /// writebacks, end-of-run flushes). Attribution priority gives these
  /// cycles to the counter_traffic bucket ahead of data service.
  [[nodiscard]] Cycle counter_busy_until() const { return counter_busy_until_; }

 private:
  /// Books the counter-fetch portion of a counter-family access; returns the
  /// cycle the counter value is available. May inject counter-line DRAM
  /// traffic (fill and/or dirty writeback).
  Cycle fetch_counter(Cycle now, Addr addr, bool for_write);

  [[nodiscard]] Addr counter_line_addr(Addr data_addr) const;

  GpuConfig config_;  ///< by value: controllers outlive caller-built configs
  EncryptionScheme family_;  ///< the entry's cipher family: the secure timing
  Addr counter_bytes_;       ///< counter storage per data line (0 = none)
  LineProtection protection_;  ///< resolved once; the per-line secure test
  ThroughputPipe dram_;
  ThroughputPipe aes_;
  std::optional<SetAssocCache> counter_cache_;
  BusProbe* probe_ = nullptr;

  std::uint64_t read_bytes_ = 0;
  std::uint64_t write_bytes_ = 0;
  std::uint64_t encrypted_bytes_ = 0;
  std::uint64_t bypassed_bytes_ = 0;
  std::uint64_t counter_traffic_bytes_ = 0;
  std::uint64_t counter_fill_bytes_ = 0;
  std::uint64_t counter_writeback_bytes_ = 0;
  std::uint64_t counter_flush_bytes_ = 0;
  Cycle counter_busy_until_ = 0;
};

}  // namespace sealdl::sim
