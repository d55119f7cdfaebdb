// Top-level cycle-level model of the encrypted DL accelerator.
//
// Wires together: SM cores -> interconnect -> per-channel L2 slices ->
// memory controllers (with AES engines / counter caches) -> GDDR5 channels.
// Drive it by loading warp programs (from src/workload generators) and
// calling run(); read results from stats().
#pragma once

#include <memory>
#include <queue>
#include <vector>

#include "sim/gpu_config.hpp"
#include "sim/l2_slice.hpp"
#include "sim/mem_controller.hpp"
#include "sim/pipes.hpp"
#include "sim/request.hpp"
#include "sim/secure_map.hpp"
#include "sim/sim_stats.hpp"
#include "sim/sm_core.hpp"
#include "telemetry/sampler.hpp"

namespace sealdl::telemetry {
class CycleProfiler;
}  // namespace sealdl::telemetry

namespace sealdl::sim {

class GpuSimulator {
 public:
  /// `secure_map` describes which address ranges hold encrypted data; it is
  /// only consulted when the config's scheme protects a narrower scope than
  /// everything (SEAL, GuardNN), and null there means every line is secure.
  /// The map must outlive the simulator.
  explicit GpuSimulator(GpuConfig config, const SecureMap* secure_map = nullptr);

  /// Distributes warp programs round-robin across SMs and their warp slots.
  /// Call before run(); replaces any previous assignment.
  void load_work(std::vector<WarpProgramPtr> programs);

  /// Runs until all warps retire and the memory system drains.
  /// `max_cycles` guards against runaway simulations (0 = unlimited).
  void run(Cycle max_cycles = 0);

  /// Selects the run-loop implementation. The fast path (the default) skips
  /// SMs whose tick() would provably be a no-op and batch-advances the clock
  /// over state-constant idle spans (see next_event_cycle()); the slow path
  /// is the naive reference — every SM ticked on every cycle — kept solely
  /// for differential testing. Both paths produce bit-identical stats,
  /// telemetry registries, cycle profiles, and bus traffic; only the cycles
  /// at which the interval sampler observes the run may differ (the sampler
  /// records at visited cycles, and the fast path visits fewer). Enforced by
  /// tests/test_fast_path.cpp across networks x schemes x ratios.
  void set_fast_path(bool on) { fast_path_ = on; }
  [[nodiscard]] bool fast_path() const { return fast_path_; }

  /// Gathers statistics from every component.
  [[nodiscard]] SimStats stats() const;

  /// Attaches a bus probe to every memory controller (snooper vantage).
  void set_probe(BusProbe* probe);

  /// Attaches an interval sampler (telemetry time series). May be null (the
  /// default): the run loop then pays exactly one branch per cycle. The
  /// sampler must outlive run().
  void set_sampler(telemetry::IntervalSampler* sampler) { sampler_ = sampler; }

  /// Attaches a cycle-attribution profiler (see telemetry/profiler.hpp). Same
  /// contract as the sampler: null (the default) costs one branch per
  /// run-loop iteration; non-null must outlive run(). The profiler sees every
  /// loop span [now, next) via account() and the post-loop drain tail via
  /// finish().
  void set_profiler(telemetry::CycleProfiler* profiler) { profiler_ = profiler; }

  [[nodiscard]] const GpuConfig& config() const { return config_; }

  // Component access for telemetry collection (pull model: the exporters in
  // src/telemetry read these after run(); the hot loop stays untouched).
  [[nodiscard]] int num_sms() const { return static_cast<int>(sms_.size()); }
  [[nodiscard]] const SmCore& sm(int i) const {
    return *sms_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int num_channels() const {
    return static_cast<int>(controllers_.size());
  }
  [[nodiscard]] const MemoryController& controller(int c) const {
    return *controllers_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const L2Slice& l2_slice(int c) const {
    return *l2_slices_[static_cast<std::size_t>(c)];
  }

 private:
  struct FillEvent {
    Cycle ready;
    Addr addr;
    int channel;
    bool operator>(const FillEvent& other) const { return ready > other.ready; }
  };
  struct Response {
    int sm_id;
    int warp_id;
  };

  [[nodiscard]] int channel_of(Addr addr) const;
  void route_request(Cycle now, const MemRequest& request);
  void deliver_ready(Cycle now);
  [[nodiscard]] Cycle next_event_cycle() const;
  void take_sample(Cycle now);

  GpuConfig config_;
  std::vector<std::unique_ptr<SmCore>> sms_;
  std::vector<std::unique_ptr<MemoryController>> controllers_;
  std::vector<std::unique_ptr<L2Slice>> l2_slices_;
  DelayQueue<MemRequest> to_l2_;
  DelayQueue<Response> to_sm_;
  std::priority_queue<FillEvent, std::vector<FillEvent>, std::greater<FillEvent>>
      fills_;
  Cycle now_ = 0;
  Cycle finish_cycle_ = 0;
  bool fast_path_ = true;

  telemetry::IntervalSampler* sampler_ = nullptr;
  telemetry::CycleProfiler* profiler_ = nullptr;
  /// Component totals at the previous sample, for interval deltas.
  struct SampleBase {
    Cycle cycle = 0;
    std::uint64_t thread_instructions = 0;
    double dram_busy = 0.0;
    double aes_busy = 0.0;
    std::uint64_t dram_bytes = 0;
  } sample_base_;
};

}  // namespace sealdl::sim
