#include "serve/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve/admission_queue.hpp"
#include "telemetry/phase.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace sealdl::serve {

namespace {

// Latency histogram bounds: 5 ms resolution up to 10 s. Saturated tails are
// visible through the exported overflow count (Histogram::percentile clamps
// to hi by contract).
constexpr double kLatencyHistMs = 10000.0;
constexpr std::size_t kLatencyBuckets = 2000;

/// Annotates one dispatched batch as a phase record so the Perfetto trace
/// and the run report's layer array show the serving timeline. `fraction`
/// scales the volume fields for per-stage records (1.0 for a whole batch);
/// the record lands on `device`'s track.
telemetry::LayerPhaseRecord batch_record(const ServiceModel& model,
                                         int network, int batch_size,
                                         const std::string& name,
                                         double cycles, double start,
                                         double fraction, int device) {
  const ServiceModel::Aggregate& aggregate = model.aggregate(network);
  const double b = static_cast<double>(batch_size) * fraction;
  telemetry::LayerPhaseRecord record;
  record.name = name;
  record.start_cycle = static_cast<sim::Cycle>(start);
  record.sim_cycles = static_cast<sim::Cycle>(cycles);
  record.scale = 1.0;
  record.full_cycles = cycles;
  record.device = device;
  record.thread_instructions =
      static_cast<std::uint64_t>(aggregate.instructions * b);
  record.ipc = cycles > 0.0 ? aggregate.instructions * b / cycles : 0.0;
  record.dram_bytes = static_cast<std::uint64_t>(aggregate.dram_bytes * b);
  record.encrypted_bytes =
      static_cast<std::uint64_t>(aggregate.encrypted_bytes * b);
  record.bypassed_bytes =
      static_cast<std::uint64_t>(aggregate.bypassed_bytes * b);
  record.encrypted_fraction =
      aggregate.dram_bytes > 0.0
          ? aggregate.encrypted_bytes / aggregate.dram_bytes
          : 0.0;
  record.dram_util = aggregate.dram_util;
  record.aes_util = aggregate.aes_util;
  record.bound = telemetry::classify_bound(record.dram_util, record.aes_util);
  return record;
}

/// Applies completed-work events (batch/microbatch finishes) to the live
/// snapshot in finish-time order, so a line stamped T only ever counts work
/// that had actually finished by T.
struct FinishEvent {
  double cycle = 0.0;
  std::uint64_t completed = 0;  ///< requests finishing at `cycle`
  std::uint64_t batches = 0;    ///< batches whose last microbatch ends here
  bool operator>(const FinishEvent& other) const {
    return cycle > other.cycle;
  }
};

}  // namespace

const char* router_name(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kRoundRobin: return "round-robin";
    case RouterPolicy::kLeastLoaded: return "least-loaded";
    case RouterPolicy::kAffinity: return "affinity";
  }
  return "?";
}

RouterPolicy parse_router(const std::string& name) {
  if (name == "round-robin") return RouterPolicy::kRoundRobin;
  if (name == "least-loaded") return RouterPolicy::kLeastLoaded;
  if (name == "affinity") return RouterPolicy::kAffinity;
  throw std::invalid_argument("unknown router " + name +
                              " (round-robin|least-loaded|affinity)");
}

bool router_known(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kRoundRobin:
    case RouterPolicy::kLeastLoaded:
    case RouterPolicy::kAffinity:
      return true;
  }
  return false;
}

FleetReport run_fleet(const ServiceModel& model, const ServeOptions& options,
                      const FleetOptions& fleet, const sim::GpuConfig& config,
                      telemetry::RunTelemetry* collect,
                      const LiveStatsSink& live_stats) {
  if (fleet.devices < 1 || fleet.shard_stages < 1 ||
      fleet.devices % fleet.shard_stages != 0) {
    throw std::invalid_argument(
        "run_fleet: devices must be >= 1 and divisible by shard_stages");
  }
  if (!router_known(fleet.router)) {
    throw std::invalid_argument("run_fleet: unknown router policy");
  }
  const int stages = fleet.shard_stages;
  const int pipelines = fleet.devices / stages;

  RequestStream arrivals(options, model.count(), config.core_mhz);

  std::vector<AdmissionQueue> queues(
      static_cast<std::size_t>(pipelines),
      AdmissionQueue(options.queue_depth, options.policy));
  // stage_free[device_of(p, s)]: when pipeline p's stage-s device next
  // becomes free.
  std::vector<double> stage_free(static_cast<std::size_t>(fleet.devices), 0.0);
  // One stage plan per served network, shared by every pipeline.
  std::vector<ServiceModel::StagePlan> plans;
  plans.reserve(static_cast<std::size_t>(model.count()));
  for (int n = 0; n < model.count(); ++n) {
    plans.push_back(model.stage_plan(n, stages, options.max_batch));
  }

  const double ms_per_cycle = 1.0 / (config.core_mhz * 1e3);
  util::Histogram latency_ms(0.0, kLatencyHistMs, kLatencyBuckets);
  util::Histogram queue_ms(0.0, kLatencyHistMs, kLatencyBuckets);
  util::RunningStats queue_wait;
  // Lifecycle-stage histograms (completed requests only). The dispatch stage
  // is a constant per configuration; it still gets a histogram so every
  // stage reports through the same percentile machinery.
  util::Histogram backlog_ms(0.0, kLatencyHistMs, kLatencyBuckets);
  util::Histogram stage_queue_ms(0.0, kLatencyHistMs, kLatencyBuckets);
  util::Histogram dispatch_ms(0.0, kLatencyHistMs, kLatencyBuckets);
  util::Histogram execute_ms(0.0, kLatencyHistMs, kLatencyBuckets);

  FleetReport fleet_report;
  fleet_report.devices = fleet.devices;
  fleet_report.stages = stages;
  fleet_report.pipelines = pipelines;
  fleet_report.device_reports.resize(static_cast<std::size_t>(fleet.devices));
  for (int d = 0; d < fleet.devices; ++d) {
    DeviceReport& dev = fleet_report.device_reports[static_cast<std::size_t>(d)];
    dev.device = d;
    dev.pipeline = d / stages;
    dev.stage = d % stages;
  }
  const auto device_of = [stages](int pipeline, int stage) {
    return pipeline * stages + stage;
  };
  ServeReport& report = fleet_report.totals;

  const bool tracing = collect != nullptr;
  // Lifecycle record for a request that never reached a dispatch.
  const auto record_lost = [&](const Request& request, const char* outcome,
                               double end_cycle, int pipeline) {
    if (!tracing) return;
    telemetry::RequestSpanRecord span;
    span.id = request.id;
    span.network = model.name(request.network);
    span.outcome = outcome;
    span.arrival = request.arrival;
    span.device = device_of(pipeline, 0);
    span.backlog_cycles = static_cast<double>(request.admit - request.arrival);
    span.queue_cycles =
        std::max(0.0, end_cycle - static_cast<double>(request.admit));
    collect->requests().push_back(std::move(span));
  };

  // Router state. Round-robin rotates per routed arrival; affinity keys on
  // the request's session; least-loaded reads queue + backlog occupancy at
  // the arrival instant (every earlier event has already been processed —
  // the loop below is strictly time-ordered).
  std::uint64_t round_robin = 0;
  const auto route = [&](const Request& request) {
    switch (fleet.router) {
      case RouterPolicy::kLeastLoaded: {
        int best = 0;
        std::size_t best_load = ~std::size_t{0};
        for (int p = 0; p < pipelines; ++p) {
          const AdmissionQueue& queue = queues[static_cast<std::size_t>(p)];
          const std::size_t load = queue.size() + queue.backlog_size();
          if (load < best_load) {
            best_load = load;
            best = p;
          }
        }
        return best;
      }
      case RouterPolicy::kAffinity:
        return static_cast<int>(request.session %
                                static_cast<std::uint32_t>(pipelines));
      case RouterPolicy::kRoundRobin:
      default:
        return static_cast<int>(round_robin++ %
                                static_cast<std::uint64_t>(pipelines));
    }
  };

  // offer() with outcome attribution: a returned victim was shed, and a
  // dropped() increment means the newcomer itself was refused. Both end
  // their lifecycle at the offer instant (the newcomer's arrival).
  const auto offer_tracked = [&](const Request& request) {
    const int pipeline = route(request);
    AdmissionQueue& queue = queues[static_cast<std::size_t>(pipeline)];
    fleet_report.device_reports[static_cast<std::size_t>(device_of(pipeline, 0))]
        .routed++;
    const std::uint64_t dropped_before = tracing ? queue.dropped() : 0;
    const std::optional<Request> victim = queue.offer(request);
    if (!tracing) return;
    if (victim) {
      record_lost(*victim, "shed", static_cast<double>(request.arrival),
                  pipeline);
    }
    if (queue.dropped() != dropped_before) {
      Request refused = request;
      refused.admit = request.arrival;  // never queued: zero-length stages
      record_lost(refused, "dropped", static_cast<double>(request.arrival),
                  pipeline);
    }
  };

  // Live-stats cadence in simulated cycles. Lines are emitted when simulated
  // time crosses each boundary: the snapshot at boundary T includes every
  // event with timestamp <= T and nothing later — completions are applied
  // from a finish-ordered event heap, not at dispatch time.
  const bool live = options.live_stats && live_stats &&
                    options.live_stats_interval_s > 0.0;
  const double live_interval_cycles =
      options.live_stats_interval_s * config.core_mhz * 1e6;
  double next_emit = live_interval_cycles;
  std::uint64_t live_completed = 0;
  std::uint64_t live_batches = 0;
  std::priority_queue<FinishEvent, std::vector<FinishEvent>,
                      std::greater<FinishEvent>>
      finish_events;
  const auto emit_line = [&](double boundary) {
    while (!finish_events.empty() && finish_events.top().cycle <= boundary) {
      live_completed += finish_events.top().completed;
      live_batches += finish_events.top().batches;
      finish_events.pop();
    }
    std::uint64_t dropped = 0, shed = 0, blocked = 0, queued = 0, backlog = 0;
    for (const AdmissionQueue& queue : queues) {
      dropped += queue.dropped();
      shed += queue.shed();
      blocked += queue.blocked();
      queued += queue.size();
      backlog += queue.backlog_size();
    }
    util::JsonWriter json;
    json.begin_object();
    json.field("t_s", boundary / (config.core_mhz * 1e6));
    json.field("cycle", static_cast<std::uint64_t>(boundary));
    json.field("completed", live_completed);
    json.field("batches", live_batches);
    json.field("dropped", dropped);
    json.field("shed", shed);
    json.field("blocked", blocked);
    json.field("queued", queued);
    json.field("backlog", backlog);
    if (pipelines > 1) {
      json.key("queued_by_pipeline").begin_array();
      for (const AdmissionQueue& queue : queues) {
        json.value(static_cast<std::uint64_t>(queue.size()));
      }
      json.end_array();
    }
    json.end_object();
    live_stats(json.str());
  };
  // Emits every boundary strictly before the event about to be processed:
  // events stamped exactly on a boundary are part of its snapshot.
  const auto flush_before = [&](double event_cycle) {
    while (live && next_emit < event_cycle) {
      emit_line(next_emit);
      next_emit += live_interval_cycles;
    }
  };

  // Per-dispatch scratch, owned by the run so a dispatch allocates nothing
  // once the buffers have grown to the largest batch.
  std::vector<Request> batch;
  std::vector<int> micro_sizes;
  std::vector<double> micro_completion;
  std::vector<double> stage_first_start(static_cast<std::size_t>(stages));
  std::vector<double> stage_busy(static_cast<std::size_t>(stages));

  const auto dispatch = [&](int pipeline, double start) {
    queues[static_cast<std::size_t>(pipeline)].pop_batch(
        options.max_batch, static_cast<sim::Cycle>(start), batch);
    const int network = batch.front().network;
    const ServiceModel::StagePlan& plan =
        plans[static_cast<std::size_t>(network)];
    const int batch_size = static_cast<int>(batch.size());
    // Microbatching only helps once there is a pipeline to fill.
    const int micro =
        stages > 1 ? std::clamp(fleet.microbatch, 1, batch_size) : 1;
    ++report.batches;
    fleet_report.microbatches += static_cast<std::uint64_t>(micro);
    fleet_report.stage_runs += static_cast<std::uint64_t>(micro * stages);
    const int anchor_device = device_of(pipeline, 0);
    fleet_report.device_reports[static_cast<std::size_t>(anchor_device)]
        .batches++;

    // 1F1B-style schedule: stage s of microbatch m starts when the stage's
    // device frees AND stage s-1 of m has finished and crossed the link.
    // The per-device free timeline carries over between batches, so a new
    // batch's early stages overlap the previous batch's late stages.
    const double anchor = start + options.dispatch_overhead_cycles;
    micro_sizes.assign(static_cast<std::size_t>(micro), batch_size / micro);
    for (int m = 0; m < batch_size % micro; ++m) {
      micro_sizes[static_cast<std::size_t>(m)]++;
    }
    std::fill(stage_busy.begin(), stage_busy.end(), 0.0);
    micro_completion.assign(static_cast<std::size_t>(micro), 0.0);
    for (int m = 0; m < micro; ++m) {
      const int b = micro_sizes[static_cast<std::size_t>(m)];
      double prev_finish = 0.0;
      for (int s = 0; s < stages; ++s) {
        const double cycles =
            plan.cycles[static_cast<std::size_t>(s)]
                       [static_cast<std::size_t>(b - 1)];
        double ready = anchor;
        if (s > 0) {
          const double boundary_bytes =
              plan.boundary_bytes[static_cast<std::size_t>(s - 1)] *
              static_cast<double>(b);
          ready = prev_finish + fleet.link_latency_cycles +
                  boundary_bytes / fleet.link_bytes_per_cycle;
        }
        const int device = device_of(pipeline, s);
        double& free_at = stage_free[static_cast<std::size_t>(device)];
        const double stage_start = std::max(free_at, ready);
        const double stage_finish = stage_start + cycles;
        free_at = stage_finish;
        if (m == 0) stage_first_start[static_cast<std::size_t>(s)] = stage_start;
        stage_busy[static_cast<std::size_t>(s)] += cycles;
        DeviceReport& dev =
            fleet_report.device_reports[static_cast<std::size_t>(device)];
        dev.stage_runs++;
        dev.busy_cycles += cycles;
        dev.last_free = std::max(dev.last_free, stage_finish);
        prev_finish = stage_finish;
      }
      micro_completion[static_cast<std::size_t>(m)] = prev_finish;
    }
    // The dispatch overhead (batch assembly, kernel launch) runs on the
    // pipeline's stage-0 device.
    fleet_report.device_reports[static_cast<std::size_t>(anchor_device)]
        .busy_cycles += options.dispatch_overhead_cycles;
    const double completion =
        micro_completion[static_cast<std::size_t>(micro - 1)];

    // Per-request accounting: a request completes when its microbatch exits
    // the last stage.
    std::size_t request_index = 0;
    for (int m = 0; m < micro; ++m) {
      for (int i = 0; i < micro_sizes[static_cast<std::size_t>(m)]; ++i) {
        const Request& request = batch[request_index++];
        const double wait = start - static_cast<double>(request.arrival);
        const double latency =
            micro_completion[static_cast<std::size_t>(m)] -
            static_cast<double>(request.arrival);
        latency_ms.add(latency * ms_per_cycle);
        queue_ms.add(wait * ms_per_cycle);
        queue_wait.add(wait * ms_per_cycle);

        // Stage decomposition. The execute stage is defined as the remainder
        // of the end-to-end latency after the attributed stages, so the four
        // stages sum to the measured latency by construction (the
        // profile.serve.stages / fleet.stages reconciliation) instead of
        // drifting by floating-point dust.
        const double backlog =
            static_cast<double>(request.admit - request.arrival);
        const double queued = start - static_cast<double>(request.admit);
        const double dispatch_cycles = options.dispatch_overhead_cycles;
        const double attributed = backlog + queued + dispatch_cycles;
        const double execute = latency - attributed;
        backlog_ms.add(backlog * ms_per_cycle);
        stage_queue_ms.add(queued * ms_per_cycle);
        dispatch_ms.add(dispatch_cycles * ms_per_cycle);
        execute_ms.add(execute * ms_per_cycle);
        report.stage_cycles_sum += attributed + execute;
        report.latency_cycles_sum += latency;

        if (tracing) {
          telemetry::RequestSpanRecord span;
          span.id = request.id;
          span.network = model.name(request.network);
          span.outcome = "completed";
          span.arrival = request.arrival;
          span.device = anchor_device;
          span.backlog_cycles = backlog;
          span.queue_cycles = queued;
          span.dispatch_cycles = dispatch_cycles;
          span.execute_cycles = execute;
          span.batch = report.batches;
          collect->requests().push_back(std::move(span));
        }
      }
      if (live) {
        FinishEvent event;
        event.cycle = micro_completion[static_cast<std::size_t>(m)];
        event.completed =
            static_cast<std::uint64_t>(micro_sizes[static_cast<std::size_t>(m)]);
        event.batches = m + 1 == micro ? 1 : 0;
        finish_events.push(event);
      }
    }
    report.completed += batch.size();
    fleet_report.device_reports[static_cast<std::size_t>(anchor_device)]
        .completed += batch.size();

    if (tracing) {
      const std::string base =
          "serve/" + model.name(network) + "x" + std::to_string(batch_size);
      if (stages == 1) {
        collect->layers().push_back(batch_record(model, network, batch_size,
                                                 base, completion - start,
                                                 start, 1.0, anchor_device));
      } else {
        double busy_total = 0.0;
        for (const double busy : stage_busy) busy_total += busy;
        for (int s = 0; s < stages; ++s) {
          const double busy = stage_busy[static_cast<std::size_t>(s)];
          collect->layers().push_back(batch_record(
              model, network, batch_size, base + "/s" + std::to_string(s),
              busy, stage_first_start[static_cast<std::size_t>(s)],
              busy_total > 0.0 ? busy / busy_total : 0.0,
              device_of(pipeline, s)));
        }
      }
    }
    report.end_cycle =
        std::max(report.end_cycle, static_cast<sim::Cycle>(completion));
  };

  // Strictly time-ordered event loop: the next event is either the earliest
  // arrival or the earliest possible dispatch (max of device-free and queue
  // front arrival), whichever comes first; arrivals win ties so every
  // request at or before a dispatch instant is offered first (shedding may
  // replace the front and push the dispatch later). Event times never
  // decrease, which is what makes the boundary-crossing live-stats snapshot
  // well defined. Arrivals are pulled from the stream as they are offered,
  // so the loop holds only queued requests.
  for (;;) {
    int best_pipeline = -1;
    double best_start = 0.0;
    for (int p = 0; p < pipelines; ++p) {
      const AdmissionQueue& queue = queues[static_cast<std::size_t>(p)];
      if (queue.empty()) continue;
      const double start =
          std::max(stage_free[static_cast<std::size_t>(device_of(p, 0))],
                   static_cast<double>(queue.front().arrival));
      if (best_pipeline < 0 || start < best_start) {
        best_pipeline = p;
        best_start = start;
      }
    }
    const bool has_arrival = !arrivals.done();
    if (!has_arrival && best_pipeline < 0) break;
    if (has_arrival &&
        (best_pipeline < 0 ||
         static_cast<double>(arrivals.front().arrival) <= best_start)) {
      flush_before(static_cast<double>(arrivals.front().arrival));
      offer_tracked(arrivals.front());
      ++report.generated;
      arrivals.pop();
      continue;
    }
    flush_before(best_start);
    dispatch(best_pipeline, best_start);
  }
  // Drain the remaining boundaries up to the last completion (inclusive).
  while (live && next_emit <= static_cast<double>(report.end_cycle)) {
    emit_line(next_emit);
    next_emit += live_interval_cycles;
  }

  for (int p = 0; p < pipelines; ++p) {
    const AdmissionQueue& queue = queues[static_cast<std::size_t>(p)];
    report.dropped += queue.dropped();
    report.shed += queue.shed();
    report.blocked += queue.blocked();
    report.peak_backlog = std::max(report.peak_backlog, queue.peak_backlog());
    DeviceReport& dev = fleet_report.device_reports[static_cast<std::size_t>(
        device_of(p, 0))];
    dev.dropped = queue.dropped();
    dev.shed = queue.shed();
    dev.blocked = queue.blocked();
  }
  report.mean_batch =
      report.batches
          ? static_cast<double>(report.completed) /
                static_cast<double>(report.batches)
          : 0.0;
  report.p50_ms = latency_ms.percentile(50.0);
  report.p95_ms = latency_ms.percentile(95.0);
  report.p99_ms = latency_ms.percentile(99.0);
  report.mean_queue_ms = queue_wait.mean();
  const auto stage_latency = [](const util::Histogram& hist) {
    StageLatency stage;
    stage.p50_ms = hist.percentile(50.0);
    stage.p95_ms = hist.percentile(95.0);
    stage.p99_ms = hist.percentile(99.0);
    return stage;
  };
  report.stage_backlog = stage_latency(backlog_ms);
  report.stage_queue = stage_latency(stage_queue_ms);
  report.stage_dispatch = stage_latency(dispatch_ms);
  report.stage_execute = stage_latency(execute_ms);
  // Throughput over the larger of the configured horizon and the drain
  // tail: dividing by the last-completion instant alone inflated the rate
  // whenever the fleet went idle before the arrival window closed (a 10
  // req/s load finishing at 0.1 s of a 0.2 s run is still 10 req/s offered,
  // not 20).
  const double horizon_cycles = options.duration_s * config.core_mhz * 1e6;
  const double span_cycles =
      std::max(horizon_cycles, static_cast<double>(report.end_cycle));
  const double seconds = span_cycles / (config.core_mhz * 1e6);
  report.throughput_rps =
      seconds > 0.0 ? static_cast<double>(report.completed) / seconds : 0.0;
  report.drop_rate =
      report.generated
          ? static_cast<double>(report.dropped + report.shed) /
                static_cast<double>(report.generated)
          : 0.0;

  if (collect) {
    telemetry::MetricsRegistry& registry = collect->registry();
    registry.counter("serve/generated").add(report.generated);
    registry.counter("serve/completed").add(report.completed);
    registry.counter("serve/dropped").add(report.dropped);
    registry.counter("serve/shed").add(report.shed);
    registry.counter("serve/blocked").add(report.blocked);
    registry.counter("serve/batches").add(report.batches);
    registry.gauge("serve/mean_batch").add(report.mean_batch);
    registry.gauge("serve/throughput_rps").add(report.throughput_rps);
    registry.gauge("serve/drop_rate").add(report.drop_rate);
    registry.gauge("serve/mean_queue_ms").add(report.mean_queue_ms);
    registry
        .histogram("serve/latency_ms", 0.0, kLatencyHistMs, kLatencyBuckets)
        .merge(latency_ms);
    registry
        .histogram("serve/queue_ms", 0.0, kLatencyHistMs, kLatencyBuckets)
        .merge(queue_ms);
    registry
        .histogram("serve/stage/backlog_ms", 0.0, kLatencyHistMs,
                   kLatencyBuckets)
        .merge(backlog_ms);
    registry
        .histogram("serve/stage/queue_ms", 0.0, kLatencyHistMs,
                   kLatencyBuckets)
        .merge(stage_queue_ms);
    registry
        .histogram("serve/stage/dispatch_ms", 0.0, kLatencyHistMs,
                   kLatencyBuckets)
        .merge(dispatch_ms);
    registry
        .histogram("serve/stage/execute_ms", 0.0, kLatencyHistMs,
                   kLatencyBuckets)
        .merge(execute_ms);
    // Fleet decomposition: one counter block per device, in device order,
    // so the JSON report and the fleet.* reconciliation rules see the same
    // numbers. Single-device unsharded runs skip the block so their report
    // keeps the exact pre-fleet shape.
    if (fleet.devices > 1 || stages > 1) {
      registry.gauge("fleet/devices").add(fleet.devices);
      registry.gauge("fleet/pipelines").add(pipelines);
      registry.gauge("fleet/stages").add(stages);
      registry.counter("fleet/microbatches").add(fleet_report.microbatches);
      registry.counter("fleet/stage_runs").add(fleet_report.stage_runs);
      const double end = static_cast<double>(report.end_cycle);
      for (const DeviceReport& dev : fleet_report.device_reports) {
        const std::string prefix = "fleet/d" + std::to_string(dev.device) + "/";
        registry.counter(prefix + "routed").add(dev.routed);
        registry.counter(prefix + "completed").add(dev.completed);
        registry.counter(prefix + "dropped").add(dev.dropped);
        registry.counter(prefix + "shed").add(dev.shed);
        registry.counter(prefix + "blocked").add(dev.blocked);
        registry.counter(prefix + "batches").add(dev.batches);
        registry.counter(prefix + "stage_runs").add(dev.stage_runs);
        registry.gauge(prefix + "busy_cycles").add(dev.busy_cycles);
        registry.gauge(prefix + "utilization")
            .add(end > 0.0 ? dev.busy_cycles / end : 0.0);
      }
    }
  }
  return fleet_report;
}

}  // namespace sealdl::serve
