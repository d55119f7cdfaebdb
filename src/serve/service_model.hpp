// Per-network service-time model backing the serving loop.
//
// Each served network is profiled ONCE at batch 1 through the ordinary
// workload::run_network path — the same simulate_layer/merge_outcome code
// the serial CLI uses, so the serving layer cannot drift from it. Profiles
// are dispatched onto a util::ThreadPool (one task per network); every task
// collects into its own private telemetry::RunTelemetry, and the fragments
// are merged into the caller's sink strictly in network order — the same
// submit-parallel / merge-serial discipline run_network applies per layer,
// lifted one level. Output is bitwise-identical for any --jobs value.
//
// Batch-B service times are then the analytic weight-amortization curve of
// workload/batch_model.hpp over the batch-1 profile, memoized per (network,
// B <= max_batch).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "models/layer_spec.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/network_runner.hpp"

namespace sealdl::serve {

struct NamedNetwork {
  std::string name;
  std::vector<models::LayerSpec> specs;
};

/// Resolves a network name through models::network_specs (paper scale);
/// throws std::invalid_argument for an unknown name.
NamedNetwork named_network(const std::string& name);

class ServiceModel {
 public:
  /// Profiles every network under `config`/`base_options` using up to `jobs`
  /// pool workers (1 = serial, 0 = hardware concurrency; base_options.jobs
  /// is overridden — parallelism lives at the network level here). When
  /// `collect` is non-null, per-network telemetry (layer records, component
  /// metrics, time series) is merged into it in network order.
  ServiceModel(std::vector<NamedNetwork> networks, const sim::GpuConfig& config,
               const workload::RunOptions& base_options, int max_batch, int jobs,
               telemetry::RunTelemetry* collect);

  [[nodiscard]] int count() const { return static_cast<int>(profiles_.size()); }
  [[nodiscard]] const std::string& name(int network) const {
    return names_.at(static_cast<std::size_t>(network));
  }
  [[nodiscard]] const workload::NetworkResult& profile(int network) const {
    return profiles_.at(static_cast<std::size_t>(network));
  }

  /// Memoized batch-B inference latency in core cycles (excluding the
  /// per-dispatch overhead, which the server owns). batch is clamped to
  /// [1, max_batch].
  [[nodiscard]] double service_cycles(int network, int batch) const;

  /// Pipeline-parallel stage decomposition for the fleet's model sharding:
  /// the network's layers split into `stages` contiguous groups balanced by
  /// batch-1 cycles (each layer lands in the stage its cumulative-cycle
  /// midpoint falls in, so the partition is deterministic and contiguous).
  struct StagePlan {
    /// cycles[s][b - 1]: stage s's batch-b service cycles. Summed over all
    /// stages this equals the unsharded batch-b service time — sharding
    /// moves work, it never creates or destroys cycles.
    std::vector<std::vector<double>> cycles;
    /// Activation bytes one inference pushes across the inter-device link
    /// after stage s (the boundary layer's scaled DRAM write traffic).
    /// boundary_bytes[stages - 1] is always 0: the last stage exits to the
    /// host, not to a peer device.
    std::vector<double> boundary_bytes;
  };
  /// Builds the plan for `stages` pipeline stages with batch curves up to
  /// `max_batch`. stages == 1 reproduces service_cycles() exactly.
  [[nodiscard]] StagePlan stage_plan(int network, int stages,
                                     int max_batch) const;

  /// Full-network totals of the batch-1 profile, scaled to full layers —
  /// used to annotate batch spans in the serving telemetry.
  struct Aggregate {
    double instructions = 0.0;
    double dram_bytes = 0.0;
    double encrypted_bytes = 0.0;
    double bypassed_bytes = 0.0;
    double dram_util = 0.0;  ///< cycle-weighted mean over the layers
    double aes_util = 0.0;
  };
  [[nodiscard]] const Aggregate& aggregate(int network) const {
    return aggregates_.at(static_cast<std::size_t>(network));
  }

 private:
  sim::GpuConfig config_;  ///< profiling config, reused by stage_plan()
  std::vector<std::string> names_;
  std::vector<workload::NetworkResult> profiles_;
  std::vector<Aggregate> aggregates_;
  /// cycles_[network][b - 1] for b in 1..max_batch.
  std::vector<std::vector<double>> cycles_;
};

}  // namespace sealdl::serve
