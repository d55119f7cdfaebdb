#include "serve/admission_queue.hpp"

#include <algorithm>

namespace sealdl::serve {

std::optional<Request> AdmissionQueue::offer(const Request& request) {
  ++offered_;
  // Direct admission enters the queue at its own arrival instant.
  Request admitted = request;
  admitted.admit = request.arrival;
  if (queue_.size() < depth_ && backlog_.empty()) {
    queue_.push_back(admitted);
    ++admitted_;
    return std::nullopt;
  }
  switch (policy_) {
    case OverloadPolicy::kDrop:
      ++dropped_;
      return std::nullopt;
    case OverloadPolicy::kBlock:
      backlog_.push_back(request);
      ++blocked_;
      peak_backlog_ = std::max(peak_backlog_, backlog_.size());
      return std::nullopt;
    case OverloadPolicy::kShedOldest: {
      // depth 0 means there is never a victim to shed: the "full" queue is
      // empty, and queue_.front() would be undefined behavior. The arrival
      // is refused outright and counted as a drop, so the accounting
      // identity generated == completed + dropped + shed still holds.
      if (queue_.empty()) {
        ++dropped_;
        return std::nullopt;
      }
      Request oldest = queue_.front();
      queue_.pop_front();
      ++shed_;
      queue_.push_back(admitted);
      ++admitted_;
      return oldest;
    }
  }
  return std::nullopt;
}

void AdmissionQueue::pop_batch(int max_batch, sim::Cycle now,
                               std::vector<Request>& batch) {
  batch.clear();
  if (queue_.empty()) return;
  const int network = queue_.front().network;
  const auto limit = static_cast<std::size_t>(std::max(1, max_batch));
  for (auto it = queue_.begin(); it != queue_.end() && batch.size() < limit;) {
    if (it->network == network) {
      batch.push_back(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  refill_from_backlog(now);
}

void AdmissionQueue::refill_from_backlog(sim::Cycle now) {
  while (queue_.size() < depth_ && !backlog_.empty()) {
    Request request = backlog_.front();
    backlog_.pop_front();
    request.admit = std::max(now, request.arrival);
    queue_.push_back(request);
    ++admitted_;
  }
}

}  // namespace sealdl::serve
