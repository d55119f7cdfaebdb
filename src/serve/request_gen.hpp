// Seeded open-loop request stream.
//
// Yields the arrival schedule one request at a time, in arrival order: a
// Poisson-like process whose exponential inter-arrival gaps and per-request
// network choices are drawn from one util::Rng stream. The draws depend only
// on (seed, rate, duration, network count, clock) and never on what the
// serving loop does with a request, so the offered load is identical across
// queue depths, policies, routers and --jobs values — only the serving
// behaviour differs, which is what the determinism gate compares. Pulling
// arrivals lazily keeps a serving run's memory proportional to its queues,
// not to the number of requests it offers.
#pragma once

#include <cstdint>

#include "serve/options.hpp"
#include "sim/request.hpp"
#include "util/rng.hpp"

namespace sealdl::serve {

struct Request {
  std::uint64_t id = 0;      ///< arrival order, 0-based
  int network = 0;           ///< index into the ServiceModel's networks
  /// Client session the request belongs to (uniform over [0, 2^16)). Drawn
  /// from an Rng stream independent of the gap/network draws, so adding the
  /// field left every pre-existing arrival schedule byte-identical. The
  /// fleet's session-affinity router keys on it.
  std::uint32_t session = 0;
  sim::Cycle arrival = 0;    ///< cycle the request reaches the server
  /// Cycle the request entered the admission queue: the arrival cycle when
  /// admitted directly, the backlog-refill cycle under the block policy.
  /// Stamped by AdmissionQueue; the lifecycle trace derives the backlog-wait
  /// stage (admit - arrival) from it.
  sim::Cycle admit = 0;
};

/// The arrivals in [0, duration_s) at `core_mhz` cycles per microsecond.
/// front() is the next arrival until done(); pop() draws the one after it.
/// Network indices are uniform over [0, num_networks).
class RequestStream {
 public:
  /// Throws std::invalid_argument for no networks or a non-positive rate.
  RequestStream(const ServeOptions& options, int num_networks,
                double core_mhz);

  [[nodiscard]] bool done() const { return done_; }
  /// The next arrival; the stream must not be done().
  [[nodiscard]] const Request& front() const { return next_; }
  /// Draws the arrival after front(); a no-op once done().
  void pop();

 private:
  util::Rng rng_;
  util::Rng session_rng_;
  std::uint64_t num_networks_ = 0;
  double mean_gap_cycles_ = 0.0;
  double horizon_ = 0.0;
  double clock_ = 0.0;
  std::uint64_t drawn_ = 0;
  bool done_ = false;
  Request next_;
};

}  // namespace sealdl::serve
