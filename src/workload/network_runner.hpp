// Whole-network timing runs: lay the model out, simulate every layer, and
// aggregate IPC / latency under a given encryption configuration.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/encryption_plan.hpp"
#include "core/model_layout.hpp"
#include "sim/gpu_config.hpp"
#include "sim/sim_stats.hpp"
#include "telemetry/telemetry.hpp"

namespace sealdl::sim {
class BusProbe;
}  // namespace sealdl::sim

namespace sealdl::workload {

/// Observer factory for a run's raw bus traffic. The runner calls
/// make_probe() once per simulated layer and attaches the returned probe to
/// that layer's private simulator, so the probe is only ever touched by the
/// thread running the layer, which also calls its BusProbe::on_finish() after
/// the last transfer; merge_probe() then hands it back strictly in
/// spec order from the submitting thread. An implementation therefore needs
/// no synchronization, and any per-line accumulation it performs is
/// bitwise-identical regardless of --jobs — the same task-private +
/// ordered-merge discipline telemetry uses. The verify-side taint auditor
/// (verify/taint.hpp) is the canonical implementation.
class BusProbeHook {
 public:
  virtual ~BusProbeHook() = default;

  /// A fresh probe for the layer at `spec_index`; called in spec order from
  /// the submitting thread, before the layer task may start.
  virtual std::unique_ptr<sim::BusProbe> make_probe(std::size_t spec_index) = 0;

  /// Returns the probe after the layer finished; called in spec order from
  /// the submitting thread.
  virtual void merge_probe(std::unique_ptr<sim::BusProbe> probe,
                           std::size_t spec_index) = 0;
};

struct LayerResult {
  std::string name;
  sim::SimStats stats;       ///< raw stats of the simulated slice
  double scale = 1.0;        ///< full-layer cycles = stats.cycles * scale
  /// Laid-out weight footprint of the full layer (row pitch x kernel rows,
  /// zero for POOL): the batch-invariant traffic that serve::batching can
  /// amortize across requests (see workload/batch_model.hpp).
  std::uint64_t weight_bytes = 0;
  [[nodiscard]] double full_cycles() const {
    return static_cast<double>(stats.cycles) * scale;
  }
  [[nodiscard]] double ipc() const { return stats.ipc(); }
};

struct NetworkResult {
  std::vector<LayerResult> layers;

  /// Whole-inference latency in core cycles (sampled layers scaled up).
  [[nodiscard]] double total_cycles() const;

  /// Aggregate IPC: total (scaled) instructions / total (scaled) cycles.
  [[nodiscard]] double overall_ipc() const;
};

struct RunOptions {
  /// Cap on simulated tiles per layer (0 = exact). Sampling keeps full-network
  /// runs fast; per-layer cycles are scaled by the uncovered tile fraction.
  std::uint64_t max_tiles_per_layer = 2000;
  /// Encryption plan options, used when the config's scheme protects the
  /// plan's rows (SEAL). The config's registry entry alone decides the
  /// secure map: plan rows build this plan, weights-only marks every kernel
  /// row (GuardNN), and full or no encryption needs no map.
  core::PlanOptions plan;
  /// When non-empty, only these spec indices are simulated (the full layout
  /// is still built, so e.g. a POOL keeps the channel encryption induced by
  /// its downstream CONV). Results appear in filter order.
  std::vector<std::size_t> layer_filter;
  /// Optional collection sink: per-layer phase records, per-component
  /// metrics, and (when its sampler is configured) time series. Null — the
  /// default — collects nothing and leaves simulation cycle-identical.
  telemetry::RunTelemetry* telemetry = nullptr;
  /// Worker threads for the per-layer simulations: 1 (default) runs the
  /// serial loop, 0 uses one worker per hardware thread, N > 1 uses N
  /// workers. Layers are independent GpuSimulator instances over the shared
  /// read-only layout/plan/secure-map, and results and telemetry are merged
  /// back in spec order — the output is bitwise-identical to jobs = 1
  /// regardless of worker count or scheduling (see docs/SIMULATOR.md,
  /// "Parallel layer simulation").
  int jobs = 1;
  /// Optional bus-traffic observer (taint auditing). Null — the default —
  /// attaches no probe and leaves simulation cycle-identical.
  BusProbeHook* probe_hook = nullptr;
  /// Sub-layer work-unit granularity: when non-zero, each layer's simulated
  /// tile slice is split into ceil(tiles / chunk_tiles) chunk waves, each a
  /// private GpuSimulator run (caches cold per wave, cycles summed), merged
  /// back strictly in (layer, chunk) order. A deep network whose layer count
  /// barely exceeds the worker count then still scales: the scheduler has
  /// layers x chunks independent units to balance. 0 — the default — keeps
  /// one work unit per layer and is byte-identical to the pre-chunking
  /// runner. Chunked results are a different (coarser-reuse) simulation than
  /// unchunked ones, but for a fixed chunk_tiles they are bitwise-invariant
  /// across --jobs, same as everything else in this runner.
  std::uint64_t chunk_tiles = 0;
  /// Selects the simulator run loop (see GpuSimulator::set_fast_path).
  /// false = naive every-SM-every-cycle reference, for differential testing.
  bool fast_path = true;
};

/// Simulates one network described by `specs` under `config`.
NetworkResult run_network(const std::vector<models::LayerSpec>& specs,
                          sim::GpuConfig config, const RunOptions& options);

/// Simulates a single layer (helper for the per-layer figures).
LayerResult run_single_layer(const models::LayerSpec& spec, sim::GpuConfig config,
                             const RunOptions& options);

}  // namespace sealdl::workload
