// Timing primitives: fixed-latency FIFOs and bandwidth-limited resources.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/request.hpp"

namespace sealdl::sim {

/// FIFO whose elements become visible a fixed number of cycles after they are
/// pushed. Models wire/router latency (e.g. the SM<->L2 interconnect).
///
/// Storage is a power-of-two ring buffer split struct-of-arrays style: the
/// ready cycles live in their own contiguous array, so the run loop's
/// front_ready()/pop_ready() polling — the hottest reads in the simulator —
/// never drags the payloads through the cache, and pushes never allocate
/// once the ring has grown to the workload's high-water mark (std::deque
/// chased 512-byte chunks through a map on every push/pop).
template <typename T>
class DelayQueue {
 public:
  explicit DelayQueue(Cycle latency) : latency_(latency) {}

  void push(Cycle now, T value) {
    if (size_ == ready_.size()) grow();
    const std::size_t slot = (head_ + size_) & mask_;
    ready_[slot] = now + latency_;
    values_[slot] = std::move(value);
    ++size_;
  }

  /// Pops the front element if it is ready at `now`.
  std::optional<T> pop_ready(Cycle now) {
    if (size_ == 0 || ready_[head_] > now) return std::nullopt;
    T out = std::move(values_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return out;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Cycle at which the front element becomes ready; only valid if !empty().
  [[nodiscard]] Cycle front_ready() const {
    assert(size_ != 0);
    return ready_[head_];
  }

 private:
  void grow() {
    const std::size_t capacity = ready_.empty() ? 16 : ready_.size() * 2;
    std::vector<Cycle> ready(capacity);
    std::vector<T> values(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      const std::size_t slot = (head_ + i) & mask_;
      ready[i] = ready_[slot];
      values[i] = std::move(values_[slot]);
    }
    ready_ = std::move(ready);
    values_ = std::move(values);
    head_ = 0;
    mask_ = capacity - 1;
  }

  Cycle latency_;
  std::vector<Cycle> ready_;  ///< SoA: ready cycles, scanned without payloads
  std::vector<T> values_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;  ///< capacity - 1 (capacity is a power of two)
};

/// A shared resource with finite bandwidth and a fixed pipeline latency,
/// scheduled by reservation: callers ask "when would a transfer of N bytes
/// issued no earlier than cycle t complete?" and the pipe books the occupancy.
///
/// Used for DRAM channels and AES engines. Occupancy is tracked in fractional
/// cycles so that e.g. a 42.24 B/cycle channel is modeled exactly; completions
/// are reported as integer cycles (ceil).
class ThroughputPipe {
 public:
  /// Throws std::invalid_argument naming the pipe (`what`) unless
  /// `bytes_per_cycle` is positive and finite: a zero-bandwidth pipe would
  /// book infinite occupancy.
  ThroughputPipe(double bytes_per_cycle, Cycle latency, const char* what = "pipe")
      : bytes_per_cycle_(bytes_per_cycle), latency_(latency) {
    if (!(bytes_per_cycle > 0.0) || !std::isfinite(bytes_per_cycle)) {
      throw std::invalid_argument(std::string(what) +
                                  " bandwidth must be positive and finite, got " +
                                  std::to_string(bytes_per_cycle) + " B/cycle");
    }
  }

  /// Books `bytes` of occupancy starting no earlier than `earliest`; returns
  /// the cycle at which the data emerges from the pipe.
  Cycle schedule(Cycle earliest, std::uint64_t bytes) {
    const double start = std::max(next_free_, static_cast<double>(earliest));
    const double busy = static_cast<double>(bytes) / bytes_per_cycle_;
    next_free_ = start + busy;
    busy_cycles_ += busy;
    bytes_ += bytes;
    return static_cast<Cycle>(std::ceil(next_free_)) + latency_;
  }

  /// First cycle at which a new transfer could begin.
  [[nodiscard]] double next_free() const { return next_free_; }

  [[nodiscard]] double busy_cycles() const { return busy_cycles_; }
  [[nodiscard]] std::uint64_t bytes_transferred() const { return bytes_; }
  [[nodiscard]] double bytes_per_cycle() const { return bytes_per_cycle_; }
  [[nodiscard]] Cycle latency() const { return latency_; }

  /// Utilization over the first `elapsed` cycles (clamped to [0,1]).
  [[nodiscard]] double utilization(Cycle elapsed) const {
    if (elapsed == 0) return 0.0;
    return std::min(1.0, busy_cycles_ / static_cast<double>(elapsed));
  }

 private:
  double bytes_per_cycle_;
  Cycle latency_;
  double next_free_ = 0.0;
  double busy_cycles_ = 0.0;
  std::uint64_t bytes_ = 0;
};

}  // namespace sealdl::sim
