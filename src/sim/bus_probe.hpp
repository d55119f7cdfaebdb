// Observation point on the memory bus — the adversary's vantage point.
//
// A BusProbe sees every DRAM transaction exactly as a physical bus snooper
// would: the address, direction, and (in functional mode) the raw bytes on
// the wires — ciphertext for secure lines, plaintext otherwise.
#pragma once

#include <cstdint>
#include <span>

#include "sim/request.hpp"

namespace sealdl::sim {

class BusProbe {
 public:
  virtual ~BusProbe() = default;

  /// Timing-mode notification: a transfer of `bytes` at `line_addr`.
  /// `encrypted` reports whether the payload was ciphertext on the wire.
  virtual void on_transfer(Addr line_addr, std::uint32_t bytes, bool is_write,
                           bool encrypted) = 0;

  /// Functional-mode notification with the actual wire bytes. Default no-op
  /// so timing-only probes ignore it.
  virtual void on_data(Addr line_addr, std::span<const std::uint8_t> wire_bytes,
                       bool is_write, bool encrypted) {
    (void)line_addr;
    (void)wire_bytes;
    (void)is_write;
    (void)encrypted;
  }

  /// Called once after the last transfer of the run the probe watched, on
  /// the thread that ran it. A recording probe finalizes its private state
  /// here so whoever collects it later has less to do. Default no-op.
  virtual void on_finish() {}
};

}  // namespace sealdl::sim
