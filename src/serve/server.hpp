// Deterministic batched-inference serving loop.
//
// Single-threaded discrete-event simulation over two event sources: the
// seeded arrival stream and device completions. The device serves
// one batch at a time; at each dispatch the scheduler groups up to
// --batch queued requests for the front request's network (FIFO otherwise)
// and charges the ServiceModel's batch-B latency plus a fixed dispatch
// overhead. Per-request latency (queue wait + service) feeds
// util::Histogram percentiles; all queue/overload accounting lands in the
// telemetry registry so the standard JSON run report and Perfetto trace
// carry the serving view. Simulation parallelism (--jobs) lives entirely in
// the ServiceModel profiling stage — the loop itself is sequential and
// replays bit-identically for a fixed seed.
//
// run_server is the one-device special case of serve/fleet.hpp's run_fleet;
// multi-device serving (routers, pipeline-parallel sharding) lives there.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "serve/options.hpp"
#include "serve/request_gen.hpp"
#include "serve/service_model.hpp"
#include "sim/gpu_config.hpp"
#include "telemetry/telemetry.hpp"

namespace sealdl::serve {

/// Percentiles of one lifecycle stage's latency over completed requests.
struct StageLatency {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

struct ServeReport {
  // Request accounting. generated = completed + dropped + shed once the
  // loop drains (block never loses requests, it only delays them).
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  std::uint64_t blocked = 0;       ///< arrivals that waited in the backlog
  std::size_t peak_backlog = 0;

  std::uint64_t batches = 0;
  double mean_batch = 0.0;         ///< completed / batches

  sim::Cycle end_cycle = 0;        ///< last batch completion (device idle)
  double p50_ms = 0.0;             ///< end-to-end request latency percentiles
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_queue_ms = 0.0;
  double throughput_rps = 0.0;     ///< completed per simulated second
  double drop_rate = 0.0;          ///< (dropped + shed) / generated

  // Per-stage latency decomposition over completed requests. The stages are
  // causally ordered (backlog -> queue -> dispatch -> execute) and their
  // per-request cycle counts sum exactly to the end-to-end latency:
  // stage_cycles_sum == latency_cycles_sum (rule profile.serve.stages).
  StageLatency stage_backlog;
  StageLatency stage_queue;
  StageLatency stage_dispatch;
  StageLatency stage_execute;
  double stage_cycles_sum = 0.0;    ///< sum of all stage cycles, completed reqs
  double latency_cycles_sum = 0.0;  ///< sum of end-to-end latency cycles
};

/// Receives one NDJSON progress line per live-stats interval (simulated
/// time). Lines are deterministic functions of the serving state.
using LiveStatsSink = std::function<void(const std::string& line)>;

/// Runs the serving loop. When `collect` is non-null, per-batch spans are
/// appended to its layer records (visible in the Perfetto trace), the
/// serving counters/histograms land in its registry, and every request's
/// lifecycle span chain is recorded in collect->requests(). When
/// `live_stats` is set and options.live_stats enabled, one NDJSON progress
/// line is emitted per live-stats interval of simulated time.
ServeReport run_server(const ServiceModel& model, const ServeOptions& options,
                       const sim::GpuConfig& config,
                       telemetry::RunTelemetry* collect,
                       const LiveStatsSink& live_stats = {});

}  // namespace sealdl::serve
