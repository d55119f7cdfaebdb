#include "serve/request_gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sealdl::serve {

RequestStream::RequestStream(const ServeOptions& options, int num_networks,
                             double core_mhz)
    : rng_(options.seed),
      // Sessions come from their own stream: the gap/network draws are the
      // ones every committed artifact depends on, and interleaving a third
      // draw would silently reshuffle all of them.
      session_rng_(options.seed ^ 0xA5A5F00DD00FA5A5ULL) {
  if (num_networks <= 0) throw std::invalid_argument("no networks to serve");
  if (options.rate_rps <= 0.0) {
    throw std::invalid_argument("--rate must be > 0");
  }
  const double cycles_per_second = core_mhz * 1e6;
  num_networks_ = static_cast<std::uint64_t>(num_networks);
  mean_gap_cycles_ = cycles_per_second / options.rate_rps;
  horizon_ = options.duration_s * cycles_per_second;
  pop();  // draws the first arrival
}

void RequestStream::pop() {
  if (done_) return;
  // Exponential gap; 1 - u keeps log() away from 0. At least one cycle so
  // ids and arrival order stay aligned even at absurd rates.
  const double u = rng_.next_double();
  clock_ += std::max(1.0, -std::log(1.0 - u) * mean_gap_cycles_);
  if (clock_ >= horizon_) {
    done_ = true;
    return;
  }
  next_ = Request{};
  next_.id = drawn_++;
  next_.network = static_cast<int>(rng_.next_below(num_networks_));
  next_.session = static_cast<std::uint32_t>(session_rng_.next_below(1ULL << 16));
  next_.arrival = static_cast<sim::Cycle>(clock_);
}

}  // namespace sealdl::serve
