// Shared scaffolding for the paper-reproduction bench binaries.
//
// Every bench prints the rows/series of one paper table or figure using
// util::Table, plus a short header stating what the paper reports so the
// output is self-contained for EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/encryption_plan.hpp"
#include "sim/gpu_config.hpp"
#include "sim/scheme_registry.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/network_runner.hpp"

namespace sealdl::bench {

/// One bar group of the performance figures. Rows are materialized from the
/// shared scheme registry (sim/scheme_registry.hpp), so the benches sweep the
/// same table the CLIs resolve --scheme against.
struct SchemeConfig {
  std::string name;
  sim::EncryptionScheme scheme;  ///< info->family; only the standalone benchmark reads it
  const sim::SchemeInfo* info;   ///< registry entry, never null
};

inline std::vector<SchemeConfig> schemes_from_registry(bool include_rivals) {
  std::vector<SchemeConfig> out;
  for (const sim::SchemeInfo& info : sim::scheme_registry()) {
    if (!include_rivals && !info.paper) continue;
    out.push_back({info.display, info.family, &info});
  }
  return out;
}

/// Baseline / Direct / Counter / SEAL-D / SEAL-C (paper §IV-A).
inline std::vector<SchemeConfig> five_schemes() {
  return schemes_from_registry(/*include_rivals=*/false);
}

/// The paper's five schemes plus the registered rivals (Seculator, GuardNN).
inline std::vector<SchemeConfig> all_schemes() {
  return schemes_from_registry(/*include_rivals=*/true);
}

/// Applies one scheme to a GTX480 config.
inline sim::GpuConfig configure(const SchemeConfig& scheme) {
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = scheme.info;
  return config;
}

/// No-op, kept because the standalone benchmark still calls it: the runner
/// reads the scheme's scope from the config's registry entry.
inline void apply_scheme_options(const SchemeConfig& /*scheme*/,
                                 workload::RunOptions& /*options*/) {}

/// The paper's default SE plan: 50% ratio with the §III-B boundary policy.
inline core::PlanOptions default_plan() {
  core::PlanOptions plan;
  plan.encryption_ratio = 0.5;
  return plan;
}

/// Per-layer figures apply the SE ratio to the measured layer itself
/// (no boundary policy — the swept layer is a body layer).
inline core::PlanOptions body_layer_plan(double ratio = 0.5) {
  core::PlanOptions plan;
  plan.encryption_ratio = ratio;
  plan.full_head_convs = 0;
  plan.full_tail_convs = 0;
  plan.full_tail_fcs = 0;
  return plan;
}

/// Parses the shared `--jobs N` flag (per-layer simulation parallelism:
/// 1 = serial, 0 = one worker per hardware thread). Every bench that runs
/// networks accepts it; results are bitwise-identical across values.
inline int jobs_from_flags(util::CliFlags& flags) {
  return static_cast<int>(flags.get_int("jobs", 1));
}

/// Simulates one body layer followed by a synthetic consumer CONV, timing
/// only the body layer. The consumer exists so that under SEAL the measured
/// layer's output feature map carries a downstream layer's 50% channel
/// marking rather than the fully-encrypted network-output rule.
inline workload::LayerResult run_body_layer(const models::LayerSpec& spec,
                                            const SchemeConfig& scheme,
                                            std::uint64_t tiles, double ratio,
                                            telemetry::RunTelemetry* collect = nullptr,
                                            int jobs = 1) {
  models::LayerSpec consumer;
  consumer.type = models::LayerSpec::Type::kConv;
  consumer.name = "consumer";
  consumer.in_channels = spec.out_channels;
  consumer.out_channels = spec.out_channels;
  consumer.in_h = spec.out_h();
  consumer.in_w = spec.out_w();

  workload::RunOptions options;
  options.max_tiles_per_layer = tiles;
  options.plan = body_layer_plan(ratio);
  options.layer_filter = {0};
  options.telemetry = collect;
  options.jobs = jobs;
  return workload::run_network({spec, consumer}, configure(scheme), options)
      .layers.front();
}

/// Shared telemetry sinks for the fig*/ablation benches: every bench that
/// calls these accepts `--json PATH`, `--trace PATH`, and
/// `--sample-interval N`, dumping the raw per-layer/time-series data its
/// table aggregates away. Returns null when neither sink was requested.
inline std::unique_ptr<telemetry::RunTelemetry> telemetry_from_flags(
    util::CliFlags& flags) {
  const std::string json = flags.get("json", "");
  const std::string trace = flags.get("trace", "");
  const sim::Cycle interval = flags.get_uint("sample-interval", 10000);
  if (json.empty() && trace.empty()) return nullptr;
  telemetry::TelemetryOptions options;
  options.sample_interval = interval;
  return std::make_unique<telemetry::RunTelemetry>(options);
}

/// Stamps the shared provenance block into a bench's BENCH_*.json document
/// (same schema as the run reports' "provenance" key).
inline void write_bench_provenance(util::JsonWriter& json,
                                   const sim::GpuConfig& config, int jobs,
                                   std::vector<std::string> schemes,
                                   bool fast_path = true) {
  json.key("provenance");
  telemetry::Provenance prov =
      telemetry::make_provenance(config, jobs, std::move(schemes));
  prov.fast_path = fast_path;
  telemetry::write_provenance_json(json, prov);
}

/// Scheme labels of a sweep, for provenance stamping.
inline std::vector<std::string> scheme_names(
    const std::vector<SchemeConfig>& schemes) {
  std::vector<std::string> names;
  for (const SchemeConfig& scheme : schemes) names.push_back(scheme.name);
  return names;
}

/// Scheme labels of five_schemes(), for provenance stamping.
inline std::vector<std::string> five_scheme_names() {
  return scheme_names(five_schemes());
}

/// Writes the sinks parsed by telemetry_from_flags(); no-op when `collect`
/// is null.
inline void export_telemetry(util::CliFlags& flags, const std::string& bench,
                             const sim::GpuConfig& config,
                             const telemetry::RunTelemetry* collect,
                             int jobs = 1) {
  if (!collect) return;
  telemetry::RunInfo info;
  info.tool = bench;
  info.workload = bench;
  info.scheme = "multi";  // bench runs sweep several schemes into one report
  info.provenance = telemetry::make_provenance(config, jobs, five_scheme_names());
  const std::string json = flags.get("json", "");
  const std::string trace = flags.get("trace", "");
  if (!json.empty()) {
    telemetry::write_text_file(json,
                               telemetry::run_report_json(info, config, *collect));
    std::printf("\nwrote JSON run report to %s\n", json.c_str());
  }
  if (!trace.empty()) {
    telemetry::write_text_file(
        trace, telemetry::chrome_trace_json(info, config, *collect));
    std::printf("wrote Perfetto trace to %s\n", trace.c_str());
  }
}

/// Prefixes the layer records appended since `first` with "tag/", so one
/// report can hold several schemes'/networks' runs side by side.
inline void tag_new_layers(telemetry::RunTelemetry* collect, std::size_t first,
                           const std::string& tag) {
  if (!collect) return;
  for (std::size_t i = first; i < collect->layers().size(); ++i) {
    collect->layers()[i].name = tag + "/" + collect->layers()[i].name;
  }
}

/// Prints the standard bench banner.
inline void banner(const std::string& title, const std::string& paper_claim) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("paper: %s\n\n", paper_claim.c_str());
}

/// Runs a bench body: a usage error (std::invalid_argument — an unknown flag
/// or a malformed value) prints `error: ...` and exits 2, any other failure
/// exits 1.
inline int run_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

}  // namespace sealdl::bench
