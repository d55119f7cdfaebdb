#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/gpu_simulator.hpp"
#include "workload/layer_trace.hpp"

namespace sealdl::perfbench {

void Checks::op(bool ok, const std::string& what) {
  ++attempted;
  cross(ok, what);
}

void Checks::cross(bool ok, const std::string& what) {
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
}

std::unique_ptr<Layout> build_layout(const std::vector<models::LayerSpec>& specs,
                                     const bench::SchemeConfig& scheme,
                                     Tracer* tracer, int op) {
  auto out = std::make_unique<Layout>();
  const sim::ProtectionScope scope = scheme.info->scope;
  if (scope == sim::ProtectionScope::kPlanRows) {
    const auto s = span(tracer, "core.EncryptionPlan::for_specs", op);
    out->plan.emplace(
        core::EncryptionPlan::for_specs(specs, bench::default_plan()));
  }
  {
    const auto s = span(tracer, "core.ModelLayout", op);
    out->layout.emplace(specs, out->plan ? &*out->plan : nullptr, out->heap);
  }
  if (scope == sim::ProtectionScope::kWeights) {
    // Weights-only schemes: every laid-out kernel row is secure, as the
    // runner marks it.
    for (const core::LayerAddressing& layer : out->layout->layers()) {
      const std::uint64_t rows =
          layer.spec.type == models::LayerSpec::Type::kConv
              ? static_cast<std::uint64_t>(layer.spec.in_channels)
          : layer.spec.type == models::LayerSpec::Type::kFc
              ? static_cast<std::uint64_t>(layer.spec.in_features)
              : 0;
      if (rows && layer.weight_row_pitch) {
        out->heap.mark_secure(layer.weight_base, rows * layer.weight_row_pitch);
      }
    }
  }
  return out;
}

workload::RunOptions run_options(const bench::SchemeConfig& scheme, int jobs) {
  workload::RunOptions options;
  options.max_tiles_per_layer = kTiles;
  bench::apply_scheme_options(scheme, options);
  options.plan = bench::default_plan();
  options.jobs = jobs;
  return options;
}

std::string scheme_key(const bench::SchemeConfig& scheme) {
  return scheme.info->cli_name;
}

double warp_instructions(const std::vector<NetRun>& runs) {
  double total = 0.0;
  for (const NetRun& run : runs) {
    for (const auto& layer : run.result.layers) {
      total += static_cast<double>(layer.stats.warp_instructions);
    }
  }
  return total;
}

namespace {

/// Per-scheme means over networks of a per-network value normalized to the
/// same network's Baseline run, as fig7 (IPC) and fig8 (cycles) average.
std::map<std::string, double> normalized_means(
    const std::vector<NetRun>& runs,
    double (*value)(const workload::NetworkResult&)) {
  std::map<std::string, const workload::NetworkResult*> baseline;
  for (const NetRun& run : runs) {
    if (run.scheme.scheme == sim::EncryptionScheme::kNone) {
      baseline[run.network->name] = &run.result;
    }
  }
  std::map<std::string, std::vector<double>> per_scheme;
  for (const NetRun& run : runs) {
    const workload::NetworkResult* base = baseline.at(run.network->name);
    per_scheme[scheme_key(run.scheme)].push_back(value(run.result) /
                                                 value(*base));
  }
  std::map<std::string, double> out;
  for (const auto& [key, values] : per_scheme) out[key] = util::mean(values);
  return out;
}

double overall_ipc(const workload::NetworkResult& result) {
  return result.overall_ipc();
}

double total_cycles(const workload::NetworkResult& result) {
  return result.total_cycles();
}

}  // namespace

Metrics fidelity_metrics(const std::vector<NetRun>& runs) {
  // The paper's headline claims (abstract; Figs 7 and 8).
  constexpr double kSealDIpc = 1.40;
  constexpr double kSealCIpc = 1.34;
  constexpr double kSealDSaving = 0.28;
  constexpr double kSealCSaving = 0.26;
  const auto ipc = normalized_means(runs, overall_ipc);
  const auto lat = normalized_means(runs, total_cycles);
  Metrics out;
  out["ipc_err_seal_d"] =
      std::fabs(ipc.at("seal-d") / ipc.at("direct") / kSealDIpc - 1.0);
  out["ipc_err_seal_c"] =
      std::fabs(ipc.at("seal-c") / ipc.at("counter") / kSealCIpc - 1.0);
  out["lat_err_seal_d"] = std::fabs(
      (1.0 - lat.at("seal-d") / lat.at("direct")) / kSealDSaving - 1.0);
  out["lat_err_seal_c"] = std::fabs(
      (1.0 - lat.at("seal-c") / lat.at("counter")) / kSealCSaving - 1.0);
  return out;
}

sim::SimStats total_stats(const workload::NetworkResult& result) {
  sim::SimStats total;
  for (const auto& layer : result.layers) total.merge_from(layer.stats);
  return total;
}

void scheme_metrics(const std::vector<NetRun>& runs, Metrics& out) {
  const auto ipc = normalized_means(runs, overall_ipc);
  std::map<std::string, sim::SimStats> totals;
  std::map<std::string, const NetRun*> first;
  for (const NetRun& run : runs) {
    const std::string key = scheme_key(run.scheme);
    totals[key].merge_from(total_stats(run.result));
    first.emplace(key, &run);
  }
  for (const auto& [key, stats] : totals) {
    const bench::SchemeConfig& scheme = first.at(key)->scheme;
    const sim::GpuConfig config = bench::configure(scheme);
    const std::string prefix = "sim." + key + ".";
    out[prefix + "norm_ipc"] = ipc.at(key);
    out[prefix + "dram_util"] = sim::dram_utilization(stats, config);
    out[prefix + "l2_hit_rate"] = stats.l2_hit_rate();
    if (scheme.scheme != sim::EncryptionScheme::kNone) {
      out[prefix + "aes_util"] = sim::aes_utilization(stats, config);
    }
    if (scheme.scheme == sim::EncryptionScheme::kCounter) {
      out[prefix + "counter_hit_rate"] = stats.counter_hit_rate();
    }
  }
}

bool same_stats(const sim::SimStats& a, const sim::SimStats& b) {
  return a.cycles == b.cycles && a.warp_instructions == b.warp_instructions &&
         a.thread_instructions == b.thread_instructions &&
         a.l2_hits == b.l2_hits && a.l2_misses == b.l2_misses &&
         a.dram_read_bytes == b.dram_read_bytes &&
         a.dram_write_bytes == b.dram_write_bytes &&
         a.encrypted_bytes == b.encrypted_bytes &&
         a.bypassed_bytes == b.bypassed_bytes &&
         a.aes_busy_cycles == b.aes_busy_cycles &&
         a.dram_busy_cycles == b.dram_busy_cycles &&
         a.counter_hits == b.counter_hits &&
         a.counter_misses == b.counter_misses &&
         a.counter_traffic_bytes == b.counter_traffic_bytes &&
         a.counter_fill_bytes == b.counter_fill_bytes &&
         a.counter_writeback_bytes == b.counter_writeback_bytes &&
         a.counter_flush_bytes == b.counter_flush_bytes;
}

void decompose_runs(const std::vector<NetRun>& runs, Tracer& tracer,
                    Checks& checks, double parallel_wall_s, int workers,
                    Metrics& out) {
  const auto phase = tracer.open(kLayerPhase, -1);
  double serial_s = 0.0;
  double critical_s = 0.0;
  double units = 0.0;
  double tiles = 0.0;
  sim::SimStats sum;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const NetRun& run = runs[i];
    const int op = static_cast<int>(i);
    const auto laid = build_layout(run.network->specs, run.scheme, &tracer, op);
    const sim::GpuConfig config = bench::configure(run.scheme);
    const int num_warps = config.num_sms * config.warps_per_sm;
    const auto& layers = laid->layout->layers();
    bool equal = layers.size() == run.result.layers.size();
    double slowest_s = 0.0;
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const Clock::time_point start = Clock::now();
      sim::SimStats stats;
      {
        workload::LayerWork work;
        {
          const auto s = tracer.open("workload.make_layer_programs", op);
          work = workload::make_layer_programs(layers[l], num_warps, kTiles);
        }
        tiles += static_cast<double>(work.simulated_tiles);
        std::optional<sim::GpuSimulator> simulator;
        {
          const auto s = tracer.open("sim.GpuSimulator", op);
          simulator.emplace(config, &laid->heap.secure_map());
        }
        {
          const auto s = tracer.open("sim.GpuSimulator::load_work", op);
          simulator->load_work(std::move(work.programs));
        }
        {
          const auto s = tracer.open("sim.GpuSimulator::run", op);
          simulator->run();
        }
        const auto s = tracer.open("sim.GpuSimulator::stats", op);
        stats = simulator->stats();
      }
      const double unit_s = seconds_between(start, Clock::now());
      serial_s += unit_s;
      slowest_s = std::max(slowest_s, unit_s);
      units += 1.0;
      sum.merge_from(stats);
      equal = equal && l < run.result.layers.size() &&
              same_stats(stats, run.result.layers[l].stats);
    }
    critical_s += slowest_s;
    checks.cross(equal, "per-layer stats of " + run.network->name + "/" +
                            scheme_key(run.scheme) + " equal run_network's");
  }
  const double run_s = tracer.total_s("sim.GpuSimulator::run", kLayerPhase);
  out["core.layout_s"] =
      tracer.total_s("core.EncryptionPlan::for_specs", kLayerPhase) +
      tracer.total_s("core.ModelLayout", kLayerPhase);
  out["workload.trace_s"] =
      tracer.total_s("workload.make_layer_programs", kLayerPhase);
  out["sim.build_s"] = tracer.total_s("sim.GpuSimulator", kLayerPhase) +
                       tracer.total_s("sim.GpuSimulator::load_work", kLayerPhase);
  out["sim.run_s"] = run_s;
  out["sim.cycles"] = static_cast<double>(sum.cycles);
  out["sim.warp_instr"] = static_cast<double>(sum.warp_instructions);
  out["sim.l2_accesses"] = static_cast<double>(sum.l2_hits + sum.l2_misses);
  out["sim.dram_mb"] = static_cast<double>(sum.dram_bytes()) / 1e6;
  out["sim.ns_per_warp_instr"] =
      sum.warp_instructions
          ? run_s * 1e9 / static_cast<double>(sum.warp_instructions)
          : 0.0;
  out["workload.tiles"] = tiles;
  out["workload.units"] = units;
  out["workload.serial_s"] = serial_s;
  out["workload.critical_unit_s"] = critical_s;
  out["workload.parallel_eff"] =
      parallel_wall_s > 0.0 ? serial_s / (workers * parallel_wall_s) : 0.0;
}

}  // namespace sealdl::perfbench
