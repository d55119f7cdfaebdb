#include "telemetry/report.hpp"

#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/scheme_registry.hpp"
#include "telemetry/profiler.hpp"
#include "util/logging.hpp"

#ifndef SEALDL_VERSION_STRING
#define SEALDL_VERSION_STRING "0.0.0-dev"
#endif

namespace sealdl::telemetry {

std::uint64_t config_fnv1a_hash(const sim::GpuConfig& config) {
  util::JsonWriter json;
  write_config_json(json, config);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : json.str()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Provenance make_provenance(const sim::GpuConfig& config, int jobs,
                           std::vector<std::string> schemes) {
  Provenance prov;
  prov.version = SEALDL_VERSION_STRING;
  prov.schemes = std::move(schemes);
  prov.config_hash = config_fnv1a_hash(config);
  prov.host_cores = static_cast<int>(std::thread::hardware_concurrency());
  prov.jobs = jobs;
  return prov;
}

void write_provenance_json(util::JsonWriter& json, const Provenance& prov) {
  json.begin_object();
  json.field("version", prov.version);
  json.key("schemes").begin_array();
  for (const std::string& scheme : prov.schemes) json.value(scheme);
  json.end_array();
  json.field("config_hash", prov.config_hash);
  json.field("host_cores", prov.host_cores);
  json.field("jobs", prov.jobs);
  json.field("fast_path", prov.fast_path);
  json.end_object();
}

void write_config_json(util::JsonWriter& json, const sim::GpuConfig& config) {
  json.begin_object();
  json.field("scheme", sim::scheme_name(config.scheme->family));
  json.field("selective", config.scheme->selective());
  json.field("num_sms", config.num_sms);
  json.field("warps_per_sm", config.warps_per_sm);
  json.field("warp_size", config.warp_size);
  json.field("issue_width", config.issue_width);
  json.field("line_bytes", config.line_bytes);
  json.field("l2_slice_kb", config.l2_slice_kb);
  json.field("num_channels", config.num_channels);
  json.field("dram_total_gbps", config.dram_total_gbps);
  json.field("dram_efficiency", config.dram_efficiency);
  json.field("core_mhz", config.core_mhz);
  json.field("engine", config.engine.name);
  json.field("engine_gbps", config.engine.throughput_gbps);
  json.field("engine_latency_cycles", config.engine.latency_cycles);
  json.field("engines_per_controller", config.engines_per_controller);
  json.field("counter_cache_kb", config.counter_cache_kb);
  json.field("split_counters", config.split_counters);
  json.field("peak_ipc", config.peak_ipc());
  json.end_object();
}

namespace {

void write_layer_json(util::JsonWriter& json, const LayerPhaseRecord& layer) {
  json.begin_object();
  json.field("name", layer.name);
  json.field("start_cycle", static_cast<std::uint64_t>(layer.start_cycle));
  json.field("sim_cycles", static_cast<std::uint64_t>(layer.sim_cycles));
  json.field("scale", layer.scale);
  json.field("full_cycles", layer.full_cycles);
  json.field("ipc", layer.ipc);
  json.field("thread_instructions", layer.thread_instructions);
  json.field("dram_bytes", layer.dram_bytes);
  json.field("encrypted_bytes", layer.encrypted_bytes);
  json.field("bypassed_bytes", layer.bypassed_bytes);
  json.field("encrypted_fraction", layer.encrypted_fraction);
  json.field("dram_util", layer.dram_util);
  json.field("aes_util", layer.aes_util);
  json.field("l2_hit_rate", layer.l2_hit_rate);
  json.field("bound", bound_name(layer.bound));
  // Fleet device executing this span; absent for plain simulator layers so
  // pre-fleet reports keep their exact shape.
  if (layer.device >= 0) json.field("device", layer.device);
  json.end_object();
}

void write_aggregate_json(util::JsonWriter& json, const RunTelemetry& telemetry) {
  // Whole-run view derived from the per-layer records, matching
  // NetworkResult::total_cycles()/overall_ipc().
  std::uint64_t sim_cycles = 0, dram_bytes = 0, encrypted_bytes = 0;
  double full_cycles = 0.0, scaled_instructions = 0.0;
  for (const LayerPhaseRecord& layer : telemetry.layers()) {
    sim_cycles += layer.sim_cycles;
    dram_bytes += layer.dram_bytes;
    encrypted_bytes += layer.encrypted_bytes;
    full_cycles += layer.full_cycles;
    scaled_instructions +=
        static_cast<double>(layer.thread_instructions) * layer.scale;
  }
  json.begin_object();
  json.field("layers", static_cast<std::uint64_t>(telemetry.layers().size()));
  json.field("sim_cycles", sim_cycles);
  json.field("full_cycles", full_cycles);
  json.field("overall_ipc", full_cycles ? scaled_instructions / full_cycles : 0.0);
  json.field("dram_bytes", dram_bytes);
  json.field("encrypted_bytes", encrypted_bytes);
  json.field("encrypted_fraction",
             dram_bytes ? static_cast<double>(encrypted_bytes) /
                              static_cast<double>(dram_bytes)
                        : 0.0);
  json.end_object();
}

}  // namespace

std::string run_report_json(const RunInfo& info, const sim::GpuConfig& config,
                            const RunTelemetry& telemetry) {
  util::JsonWriter json;
  json.begin_object();
  json.field("schema_version", std::uint64_t{2});
  json.field("tool", info.tool);
  json.field("workload", info.workload);
  json.field("scheme", info.scheme);
  json.field("seed", info.seed);
  json.key("provenance");
  write_provenance_json(json, info.provenance);
  json.key("config");
  write_config_json(json, config);
  json.key("aggregate");
  write_aggregate_json(json, telemetry);

  json.key("layers").begin_array();
  for (const LayerPhaseRecord& layer : telemetry.layers()) {
    write_layer_json(json, layer);
  }
  json.end_array();

  json.key("series").begin_array();
  if (const IntervalSampler* sampler = telemetry.sampler()) {
    for (const TimeSample& sample : sampler->samples()) {
      json.begin_object();
      json.field("cycle", static_cast<std::uint64_t>(sample.cycle));
      json.field("ipc", sample.ipc);
      json.field("dram_util", sample.dram_util);
      json.field("aes_util", sample.aes_util);
      json.field("dram_bytes", sample.dram_bytes);
      json.field("window_waiters", sample.window_waiters);
      json.field("barrier_waiters", sample.barrier_waiters);
      json.end_object();
    }
  }
  json.end_array();

  json.key("profile");
  write_cycle_profile_json(json, telemetry.profile());

  json.key("metrics");
  telemetry.registry().write_json(json);
  json.end_object();
  return json.str() + "\n";
}

void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (!file) throw std::runtime_error("cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const int close_err = std::fclose(file);
  if (written != text.size() || close_err != 0) {
    throw std::runtime_error("short write to " + path);
  }
  SEALDL_INFO << "wrote " << text.size() << " bytes to " << path;
}

}  // namespace sealdl::telemetry
