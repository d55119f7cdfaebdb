#include "workload/network_runner.hpp"

#include <algorithm>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "sim/bus_probe.hpp"
#include "sim/gpu_simulator.hpp"
#include "sim/scheme_registry.hpp"
#include "telemetry/collect.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workload/layer_trace.hpp"

namespace sealdl::workload {

double NetworkResult::total_cycles() const {
  double total = 0.0;
  for (const auto& layer : layers) total += layer.full_cycles();
  return total;
}

double NetworkResult::overall_ipc() const {
  double instructions = 0.0, cycles = 0.0;
  for (const auto& layer : layers) {
    instructions += static_cast<double>(layer.stats.thread_instructions) * layer.scale;
    cycles += layer.full_cycles();
  }
  return cycles ? instructions / cycles : 0.0;
}

namespace {

/// Everything one layer's simulation produces. Telemetry is collected into
/// task-private state (metrics fragment, layer-local sample series) so tasks
/// never touch the shared RunTelemetry; the merge loop below folds the
/// fragments back in spec order.
struct LayerOutcome {
  LayerResult result;
  telemetry::MetricsRegistry metrics;
  std::vector<telemetry::TimeSample> samples;
  std::optional<telemetry::LayerCycleProfile> profile;
  std::uint64_t total_tiles = 0;      ///< full-layer tile count
  std::uint64_t simulated_tiles = 0;  ///< tiles this outcome covers
};

/// Simulates one work unit's programs: a laid-out layer, or — when chunking
/// is on — one tile-chunk wave of it. Reads only shared-immutable state
/// (layout, secure map, config, options) plus its own simulator — safe to run
/// from any thread, and bit-deterministic regardless of which thread runs it.
LayerOutcome simulate_layer(const core::LayerAddressing& layer, LayerWork work,
                            const sim::GpuConfig& config,
                            const sim::SecureMap& secure_map,
                            const RunOptions& options, bool collect_metrics,
                            sim::Cycle sample_interval, bool profile,
                            sim::BusProbe* probe) {
  sim::GpuSimulator simulator(config, &secure_map);
  simulator.set_fast_path(options.fast_path);
  simulator.load_work(std::move(work.programs));
  if (probe) simulator.set_probe(probe);
  // Private sampler at offset 0: samples carry layer-local cycles and are
  // shifted onto the global timeline when the segments are spliced in order.
  // The private sampler is never capped — decimation happens once, at the
  // shared sink, so serial and parallel runs see identical raw streams.
  std::optional<telemetry::IntervalSampler> sampler;
  if (sample_interval) {
    sampler.emplace(sample_interval);
    simulator.set_sampler(&*sampler);
  }
  // Same task-private discipline for the cycle-attribution profiler.
  std::optional<telemetry::CycleProfiler> profiler;
  if (profile) {
    profiler.emplace();
    simulator.set_profiler(&*profiler);
  }
  simulator.run();
  if (probe) probe->on_finish();

  LayerOutcome outcome;
  outcome.result.name = layer.spec.name;
  outcome.result.stats = simulator.stats();
  outcome.result.scale = work.scale();
  outcome.total_tiles = work.total_tiles;
  outcome.simulated_tiles = work.simulated_tiles;
  outcome.result.weight_bytes =
      layer.weight_row_pitch * static_cast<std::uint64_t>(layer.spec.weight_rows());
  if (collect_metrics) {
    telemetry::collect_component_metrics(simulator, outcome.metrics);
  }
  if (sampler) outcome.samples = sampler->samples();
  if (profiler) {
    outcome.profile = profiler->take_profile();
    outcome.profile->layer = outcome.result.name;
  }
  SEALDL_DEBUG << "layer " << outcome.result.name << ": "
               << outcome.result.stats.cycles << " cycles, ipc "
               << outcome.result.stats.ipc() << ", scale "
               << outcome.result.scale;
  return outcome;
}

/// Folds one tile-chunk wave into the accumulating layer outcome, strictly in
/// chunk order from the submitting thread. Waves run back to back on the same
/// virtual machine, so stats (cycles included) sum, chunk-local sample cycles
/// shift by the cycles of the waves before them, metrics merge additively,
/// and profile buckets/totals add (which preserves the profile.* conservation
/// invariant — sums of exact partitions stay exact). The merged scale is
/// recomputed from the summed tile coverage.
void merge_chunk(LayerOutcome&& chunk, std::optional<LayerOutcome>& layer) {
  if (!layer) {
    layer.emplace(std::move(chunk));
    return;
  }
  const sim::Cycle base = layer->result.stats.cycles;
  layer->result.stats.merge_from(chunk.result.stats);
  layer->simulated_tiles += chunk.simulated_tiles;
  layer->result.scale =
      layer->simulated_tiles
          ? static_cast<double>(layer->total_tiles) /
                static_cast<double>(layer->simulated_tiles)
          : 1.0;
  layer->samples.reserve(layer->samples.size() + chunk.samples.size());
  for (telemetry::TimeSample sample : chunk.samples) {
    sample.cycle += base;
    layer->samples.push_back(sample);
  }
  layer->metrics.merge_from(chunk.metrics);
  if (layer->profile && chunk.profile) {
    layer->profile->merge_from(*chunk.profile);
  }
}

/// Folds one layer's outcome into the run result and the shared telemetry
/// sink. Called in spec order from the submitting thread only, so the sink
/// sees the exact operation sequence of a serial run.
void merge_outcome(LayerOutcome outcome, const sim::GpuConfig& config,
                   telemetry::RunTelemetry* collect, NetworkResult& result) {
  if (collect) {
    if (auto* sampler = collect->sampler()) {
      sampler->append_shifted(outcome.samples, collect->timeline());
    }
    collect->layers().push_back(telemetry::make_layer_record(
        outcome.result.name, outcome.result.stats, config, outcome.result.scale,
        collect->timeline()));
    if (outcome.profile) {
      collect->profile().layers.push_back(std::move(*outcome.profile));
    }
    collect->registry().merge_from(outcome.metrics);
    collect->registry()
        .histogram("layer/latency_ms", 0.0, 100.0, 200)
        .add(static_cast<double>(outcome.result.stats.cycles) *
             outcome.result.scale / (config.core_mhz * 1e3));
    collect->advance_timeline(outcome.result.stats.cycles);
  }
  result.layers.push_back(std::move(outcome.result));
}

NetworkResult run_specs(const std::vector<models::LayerSpec>& specs,
                        const sim::GpuConfig& config, const RunOptions& options) {
  // Build the address-space layout once; all schemes share addresses so that
  // results are comparable line for line. Layout, plan, and secure map are
  // immutable from here on — layer tasks only read them.
  const sim::ProtectionScope scope = config.scheme->scope;
  core::SecureHeap heap;
  core::EncryptionPlan plan;
  const core::EncryptionPlan* plan_ptr = nullptr;
  if (scope == sim::ProtectionScope::kPlanRows) {
    plan = core::EncryptionPlan::for_specs(specs, options.plan);
    plan_ptr = &plan;
  }
  core::ModelLayout layout(specs, plan_ptr, heap);
  if (scope == sim::ProtectionScope::kWeights) {
    // GuardNN-style boundary: every laid-out weight byte is secure, no
    // activation is. The boundary is structural (model parameters), so it
    // needs no plan — mark each weights entry of the directory after layout.
    for (const core::Region& region : layout.directory()) {
      if (region.kind == core::Region::Kind::kWeights) {
        heap.mark_secure(region.begin, region.end - region.begin);
      }
    }
  }

  std::vector<std::size_t> indices = options.layer_filter;
  if (indices.empty()) {
    indices.resize(layout.layers().size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  }

  NetworkResult result;
  const int num_warps = config.num_sms * config.warps_per_sm;
  telemetry::RunTelemetry* collect = options.telemetry;
  const bool collect_metrics = collect != nullptr;
  const sim::Cycle sample_interval =
      collect && collect->sampler() ? collect->sampler()->interval() : 0;
  const bool profile = collect && collect->profiling();

  BusProbeHook* hook = options.probe_hook;

  // Work-unit plan: one unit per layer, or — with chunk_tiles set — one unit
  // per tile-chunk wave. The plan is computed up front, in spec order, from
  // shared-immutable state only, so serial and parallel runs schedule the
  // exact same unit list.
  struct WorkUnit {
    std::size_t spec_index;
    int chunk;
    int num_chunks;
  };
  std::vector<WorkUnit> units;
  units.reserve(indices.size());
  for (const std::size_t idx : indices) {
    int num_chunks = 1;
    if (options.chunk_tiles) {
      // Plan from the unchunked build's coverage (program construction is
      // lazy geometry arithmetic; nothing is simulated here).
      const std::uint64_t tiles =
          make_layer_programs(layout.layers().at(idx), num_warps,
                              options.max_tiles_per_layer)
              .simulated_tiles;
      num_chunks = static_cast<int>(std::max<std::uint64_t>(
          1, (tiles + options.chunk_tiles - 1) / options.chunk_tiles));
    }
    for (int c = 0; c < num_chunks; ++c) units.push_back({idx, c, num_chunks});
  }

  const auto build_unit = [&](const WorkUnit& unit) {
    return make_layer_programs(layout.layers().at(unit.spec_index), num_warps,
                               options.max_tiles_per_layer, {}, unit.chunk,
                               unit.num_chunks);
  };

  const int jobs = options.jobs == 1 ? 1 : util::ThreadPool::resolve_jobs(options.jobs);
  if (jobs <= 1 || units.size() <= 1) {
    std::optional<LayerOutcome> pending;
    for (const WorkUnit& unit : units) {
      std::unique_ptr<sim::BusProbe> probe =
          hook ? hook->make_probe(unit.spec_index) : nullptr;
      merge_chunk(
          simulate_layer(layout.layers().at(unit.spec_index), build_unit(unit),
                         config, heap.secure_map(), options, collect_metrics,
                         sample_interval, profile, probe.get()),
          pending);
      if (hook) hook->merge_probe(std::move(probe), unit.spec_index);
      if (unit.chunk == unit.num_chunks - 1) {
        merge_outcome(std::move(*pending), config, collect, result);
        pending.reset();
      }
    }
    return result;
  }

  // Each unit's programs are built once, here, and moved into its task;
  // their memory-op estimate ranks the units. Host time tracks L2 accesses,
  // so submitting the largest estimates first keeps a run's long units out
  // of its tail (a MAC ranking does not: compute-bound units are cheap to
  // simulate). stable_sort keeps ties in unit order.
  std::vector<LayerWork> works;
  works.reserve(units.size());
  for (const WorkUnit& unit : units) works.push_back(build_unit(unit));
  std::vector<std::size_t> order(units.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::stable_sort(order, std::ranges::greater{}, [&](std::size_t k) {
    return works[k].memory_ops_estimate;
  });

  // Probes are created in unit order before any submission and owned here
  // (they must outlive the tasks); each task only sees its own probe, and
  // the merge loop hands them back in the same order — the task-private +
  // ordered-merge discipline that keeps hook state jobs-invariant. A layer's
  // chunk probes merge back to back, so a hook accumulating per spec_index
  // sees the same additive sequence as a serial run.
  std::vector<std::unique_ptr<sim::BusProbe>> probes;
  probes.reserve(units.size());
  for (const WorkUnit& unit : units) {
    probes.push_back(hook ? hook->make_probe(unit.spec_index) : nullptr);
  }

  // The pool is declared after layout/heap/probes so that, if a merge
  // rethrows a task exception, its destructor drains in-flight tasks while
  // everything they borrow is still alive.
  util::ThreadPool pool(
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(jobs),
                                             units.size())));
  // Futures stay indexed by unit, whatever the submission order.
  std::vector<std::future<LayerOutcome>> futures(units.size());
  for (const std::size_t k : order) {
    const core::LayerAddressing& layer = layout.layers().at(units[k].spec_index);
    futures[k] = pool.submit([&layer, &config, &heap, &options, collect_metrics,
                              sample_interval, profile, probe = probes[k].get(),
                              work = std::move(works[k])]() mutable {
      return simulate_layer(layer, std::move(work), config, heap.secure_map(),
                            options, collect_metrics, sample_interval, profile,
                            probe);
    });
  }
  // Merge strictly in unit (= spec x chunk) order; get() rethrows the
  // first task exception to the caller. Chunk waves fold into a pending
  // layer outcome, which flushes to the shared sink when its last chunk
  // lands — the sink sees one operation sequence regardless of jobs.
  std::optional<LayerOutcome> pending;
  for (std::size_t k = 0; k < futures.size(); ++k) {
    merge_chunk(futures[k].get(), pending);
    if (hook) hook->merge_probe(std::move(probes[k]), units[k].spec_index);
    if (units[k].chunk == units[k].num_chunks - 1) {
      merge_outcome(std::move(*pending), config, collect, result);
      pending.reset();
    }
  }
  return result;
}

}  // namespace

NetworkResult run_network(const std::vector<models::LayerSpec>& specs,
                          sim::GpuConfig config, const RunOptions& options) {
  return run_specs(specs, config, options);
}

LayerResult run_single_layer(const models::LayerSpec& spec, sim::GpuConfig config,
                             const RunOptions& options) {
  return run_specs({spec}, config, options).layers.front();
}

}  // namespace sealdl::workload
