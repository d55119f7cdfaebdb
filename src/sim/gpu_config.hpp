// Configuration of the modeled accelerator.
//
// The default preset mirrors the paper's GPGPU-Sim setup (§IV-A): an NVIDIA
// GeForce GTX480 with 15 streaming multiprocessors and a 6-channel GDDR5
// memory system (384-bit @ 1848 MHz DDR => 177.4 GB/s aggregate). Everything
// is expressed in one 700 MHz core clock domain; bandwidths are converted to
// bytes per core cycle.
#pragma once

#include <cstdint>

#include "crypto/engine_spec.hpp"

namespace sealdl::sim {

/// The cipher family of a scheme (SchemeInfo::family): how a secure line is
/// transformed and timed.
enum class EncryptionScheme {
  kNone,     ///< Baseline: no encryption.
  kDirect,   ///< Direct (XEX-style) encryption of the line payload.
  kCounter,  ///< Counter-mode encryption with an on-chip counter cache.
};

/// Returns a short human-readable name ("Baseline", "Direct", "Counter").
const char* scheme_name(EncryptionScheme scheme);

struct SchemeInfo;

/// The registry's Baseline entry (sim/scheme_registry.hpp): no encryption.
[[nodiscard]] const SchemeInfo* baseline_scheme();

struct GpuConfig {
  // --- compute ---
  int num_sms = 15;           ///< streaming multiprocessors
  int warps_per_sm = 32;      ///< resident warps per SM
  int warp_size = 32;         ///< threads per warp (thread-IPC = warp retire x32)
  int issue_width = 2;        ///< warp instructions issued per SM per cycle
  int max_outstanding_loads_per_sm = 64;  ///< MSHR-limited load window
  /// Cycles between consecutive warp launches on one SM. Real grids rain
  /// blocks onto SMs over time; without this every warp starts its
  /// load/compute phases in lockstep and the SM degenerates into bulk
  /// all-load / all-compute waves that no real kernel exhibits.
  int warp_start_stagger = 300;

  // --- on-chip memory system ---
  int line_bytes = 128;             ///< cache-line / memory-transaction size
  int l2_slice_kb = 128;            ///< per-channel L2 slice capacity
  int l2_assoc = 8;
  int l2_latency = 10;              ///< slice lookup latency, cycles
  int interconnect_latency = 20;    ///< SM <-> L2 one-way latency, cycles

  // --- DRAM ---
  int num_channels = 6;
  double dram_total_gbps = 177.4;   ///< aggregate GDDR5 pin bandwidth
  /// Achievable fraction of pin bandwidth (row-buffer misses, refresh,
  /// read/write turnaround); GDDR5 streams sustain ~60-75% in practice.
  double dram_efficiency = 0.65;
  int dram_latency = 120;           ///< activate+CAS+burst return, core cycles
  int channel_interleave_bytes = 256;  ///< address striping granularity
  double core_mhz = 700.0;

  // --- encryption ---
  /// The scheme the controllers run, as its registry entry
  /// (sim/scheme_registry.hpp): cipher family, protection scope and timing
  /// model in one. Never null. The JSON report serializes it by family name
  /// and selectivity, never by pointer.
  const SchemeInfo* scheme = baseline_scheme();
  crypto::EngineSpec engine = crypto::default_engine();
  int engines_per_controller = 1;   ///< paper: one AES engine per MC
  int counter_cache_kb = 96;        ///< on-chip counter cache (counter mode)
  int counter_cache_assoc = 8;
  int counter_bytes = 8;            ///< one 64-bit counter per data line
  /// Split counters (Yan et al., ISCA'06): a 7-bit minor counter per line
  /// plus a shared per-page major counter, packing 8x more counters per
  /// counter-cache line. Minor-counter overflow (page re-encryption) is rare
  /// and not modeled. Effective only in counter mode.
  bool split_counters = false;

  /// Per-channel achievable DRAM bandwidth in bytes per core cycle.
  [[nodiscard]] double dram_bytes_per_cycle_per_channel() const {
    return dram_total_gbps * dram_efficiency * 1e9 / (core_mhz * 1e6) / num_channels;
  }

  /// Per-controller AES bandwidth in bytes per core cycle.
  [[nodiscard]] double aes_bytes_per_cycle() const {
    return engine.bytes_per_cycle(core_mhz) * engines_per_controller;
  }

  /// Bytes of counter storage per data line under the active organization.
  [[nodiscard]] int effective_counter_bytes() const {
    return split_counters ? 1 : counter_bytes;
  }

  /// Data lines covered by one counter-cache line (16 with the defaults,
  /// 128 with split counters).
  [[nodiscard]] int counters_per_line() const {
    return line_bytes / effective_counter_bytes();
  }

  /// Peak thread-IPC of the configured machine.
  [[nodiscard]] double peak_ipc() const {
    return static_cast<double>(num_sms) * issue_width * warp_size;
  }

  /// The paper's GTX480 model (§IV-A), unencrypted baseline.
  static GpuConfig gtx480();
};

}  // namespace sealdl::sim
