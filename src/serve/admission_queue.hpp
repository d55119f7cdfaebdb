// Bounded admission queue with a configurable overload policy.
//
// The queue holds requests waiting for the device. When an arrival finds it
// full, the OverloadPolicy decides: drop the newcomer, park it in an
// unbounded backlog (block — the open-loop analogue of a blocking client:
// the request keeps its arrival timestamp, so its eventual latency includes
// the time spent blocked), or shed the oldest queued request. Every outcome
// is counted so the serving report can state exactly where offered load
// went.
//
// Single owner, no lock: each queue is a local of one run_fleet call and is
// only ever touched by the thread running that call's event loop. --jobs
// parallelizes ServiceModel profiling, which finishes before the loop
// starts, so nothing else can reach a queue. The event loop reads
// empty()/front()/size() for every pipeline on every event; a lock there
// would cost more than the rest of the loop.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "serve/options.hpp"
#include "serve/request_gen.hpp"

namespace sealdl::serve {

class AdmissionQueue {
 public:
  AdmissionQueue(std::size_t depth, OverloadPolicy policy)
      : depth_(depth), policy_(policy) {}

  /// Applies the overload policy to one arrival. Returns the request shed to
  /// make room, if any (shed-oldest on a full queue).
  std::optional<Request> offer(const Request& request);

  /// Replaces `batch` with the front request plus up to `max_batch - 1`
  /// further queued requests for the same network (FIFO across the queue;
  /// non-matching requests keep their positions). Backlogged requests then
  /// refill the freed slots in arrival order, each stamped with `now` as its
  /// admit cycle (the lifecycle trace's backlog/queue stage boundary).
  /// `batch` is left empty iff the queue is empty; the caller owns it so its
  /// storage is reused across dispatches.
  void pop_batch(int max_batch, sim::Cycle now, std::vector<Request>& batch);

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  /// The oldest queued request (the next dispatch anchor); the queue must
  /// be non-empty.
  [[nodiscard]] const Request& front() const { return queue_.front(); }
  [[nodiscard]] std::size_t backlog_size() const { return backlog_.size(); }

  // Accounting (all since construction).
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t admitted() const { return admitted_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t shed() const { return shed_; }
  [[nodiscard]] std::uint64_t blocked() const { return blocked_; }
  [[nodiscard]] std::size_t peak_backlog() const { return peak_backlog_; }

 private:
  void refill_from_backlog(sim::Cycle now);

  std::size_t depth_;
  OverloadPolicy policy_;
  std::deque<Request> queue_;
  std::deque<Request> backlog_;  ///< block policy

  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t blocked_ = 0;
  std::size_t peak_backlog_ = 0;
};

}  // namespace sealdl::serve
