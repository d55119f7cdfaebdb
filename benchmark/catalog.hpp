// The metric catalog: every name the benchmark emits, with its unit. It must
// match BENCHMARK.json, which compare.py checks on every set of outputs.
//
// Untraced runs emit the end-to-end metrics; traced runs emit the per-layer
// ones, 0 for a module the workload does not run.
#pragma once

#include <string>
#include <vector>

#include "bench/bench_common.hpp"

namespace sealdl::perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

inline std::vector<MetricSpec> end_to_end_metrics() {
  return {
      {"wall_s", "s"},           {"setup_s", "s"},
      {"sim_mips", "Minstr/s"},  {"peak_rss_mb", "MB"},
      {"ipc_err_seal_d", "ratio"}, {"ipc_err_seal_c", "ratio"},
      {"lat_err_seal_d", "ratio"}, {"lat_err_seal_c", "ratio"},
  };
}

inline std::vector<MetricSpec> per_layer_metrics() {
  std::vector<MetricSpec> out = {
      {"core.layout_s", "s"},
      {"workload.trace_s", "s"},
      {"workload.tiles", "count"},
      {"workload.units", "count"},
      {"workload.serial_s", "s"},
      {"workload.parallel_eff", "ratio"},
      {"workload.critical_unit_s", "s"},
      {"sim.build_s", "s"},
      {"sim.run_s", "s"},
      {"sim.cycles", "cycles"},
      {"sim.warp_instr", "count"},
      {"sim.l2_accesses", "count"},
      {"sim.dram_mb", "MB"},
      {"sim.ns_per_warp_instr", "ns"},
  };
  for (const bench::SchemeConfig& scheme : bench::all_schemes()) {
    const std::string prefix = std::string("sim.") + scheme.info->cli_name + ".";
    for (const char* field : {"norm_ipc", "dram_util", "l2_hit_rate"}) {
      out.push_back({prefix + field, "ratio"});
    }
    if (scheme.scheme != sim::EncryptionScheme::kNone) {
      out.push_back({prefix + "aes_util", "ratio"});
    }
    if (scheme.scheme == sim::EncryptionScheme::kCounter) {
      out.push_back({prefix + "counter_hit_rate", "ratio"});
    }
  }
  for (MetricSpec metric : std::vector<MetricSpec>{
           {"serve.profile_s", "s"},
           {"serve.fleet_s", "s"},
           {"serve.probes", "count"},
           {"serve.requests", "count"},
           {"serve.us_per_request", "us"},
       }) {
    out.push_back(std::move(metric));
  }
  for (const bench::SchemeConfig& scheme : bench::five_schemes()) {
    for (const char* fleet : {"cap_d1", "cap_d4", "cap_d16"}) {
      out.push_back({std::string("serve.") + scheme.info->cli_name + "." + fleet,
                     "req/s"});
    }
  }
  for (MetricSpec metric : std::vector<MetricSpec>{
           {"serve.mean_batch", "req/batch"},
           {"serve.queue_p99_ms", "ms"},
           {"serve.execute_p99_ms", "ms"},
           {"serve.p50_ms", "ms"},
           {"serve.p99_ms", "ms"},
           {"verify.build_input_s", "s"},
           {"verify.plain_run_s", "s"},
           {"verify.audited_run_s", "s"},
           {"verify.taint_overhead_s", "s"},
           {"verify.merge_s", "s"},
           {"verify.transfers", "count"},
           {"verify.bus_mb", "MB"},
           {"verify.ledger_lines", "count"},
           {"verify.ns_per_transfer", "ns"},
           {"verify.conformance_s", "s"},
           {"telemetry.plain_run_s", "s"},
           {"telemetry.collect_run_s", "s"},
           {"telemetry.collect_overhead_s", "s"},
           {"telemetry.report_s", "s"},
           {"telemetry.trace_s", "s"},
           {"telemetry.report_mb", "MB"},
           {"telemetry.trace_mb", "MB"},
           {"telemetry.layer_records", "count"},
           {"telemetry.samples", "count"},
           {"trace_overhead_frac", "ratio"},
       }) {
    out.push_back(std::move(metric));
  }
  return out;
}

}  // namespace sealdl::perfbench
