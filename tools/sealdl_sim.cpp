// sealdl-sim: command-line front end to the accelerator simulator.
//
// Runs a single layer, a whole network, or a GEMM under any encryption
// configuration and prints the detailed statistics the bench binaries
// aggregate away. Intended for interactive exploration:
//
//   sealdl-sim --workload vgg16 --scheme seal-d --ratio 0.5 --jobs 4
//   sealdl-sim --workload conv --in-ch 256 --out-ch 256 --hw 56 --scheme counter
//   sealdl-sim --workload gemm --dim 1024 --scheme direct --engine-gbps 16
//   sealdl-sim --workload pool --in-ch 64 --hw 224 --scheme seal-c --split-counters
//
// Schemes come from the shared registry (sim/scheme_registry.hpp): the five
// paper schemes baseline | direct | counter | seal-d | seal-c plus the rival
// models seculator | guardnn. --scheme accepts any registered CLI name.
//
// Execution shape:
//   --jobs N         parallel per-layer simulation (0 = all hardware threads)
//   --chunk N        split layers into tile-chunk waves of <= N tiles, so deep
//                    networks scale past #layers workers (results fixed for a
//                    given --chunk, bitwise-invariant across --jobs)
//   --no-fast-path   naive per-cycle run loop (differential testing; identical
//                    results, much slower)
//
// Telemetry sinks (see docs/OBSERVABILITY.md):
//   --json report.json        machine-readable run report
//   --trace run.trace.json    Chrome trace-event file (Perfetto-compatible)
//   --sample-interval 10000   time-series sampling period in cycles
//   --max-samples 4096        cap the time series (2x decimation past cap)
//   --profile                 cycle-attribution profiler ("profile" report key)
//   --profile-folded out.txt  collapsed-stack flamegraph export
//
// Scheme audit (network workloads only):
//   --scheme-audit            attach a byte-provenance taint probe to the bus,
//                             then prove the run against the scheme's own
//                             declared SchemeContract (scheme.* rules,
//                             docs/ANALYSIS.md) and run the known-plaintext
//                             scheme.oracle transcript — for every registered
//                             scheme, paper and rival alike
//   --scheme-audit-json p     write the ledger + findings (implies the audit);
//                             byte-identical across --jobs values
//
// Every profiled run is checked against the profile.* rule family.
//
// Self-test: --inject <name|all> (network workloads; implies --scheme-audit
// and --profile) stages this tool's rows of the injection table
// (verify/inject.hpp: scheme-* and profile-*) over the clean run and exits 0
// only if each fires its rules; --json then names the injection ledger
// instead of the run report.
//
// Exit codes: 0 success, 1 findings or runtime error, 2 usage error.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/layer_spec.hpp"
#include "sim/gpu_simulator.hpp"
#include "sim/scheme_registry.hpp"
#include "telemetry/collect.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "verify/inject.hpp"
#include "verify/profile_checkers.hpp"
#include "verify/scheme_checkers.hpp"
#include "workload/gemm_trace.hpp"
#include "workload/network_runner.hpp"

using namespace sealdl;

namespace {

void print_stats(const sim::SimStats& stats, double scale,
                 const sim::GpuConfig& config) {
  util::Table table({"metric", "value"});
  table.add_row({"cycles (simulated slice)", std::to_string(stats.cycles)});
  table.add_row({"cycles (full workload)",
                 util::Table::fmt(static_cast<double>(stats.cycles) * scale, 0)});
  table.add_row({"latency @700MHz",
                 util::Table::fmt(static_cast<double>(stats.cycles) * scale / 700e3, 3) + " ms"});
  table.add_row({"IPC (thread)", util::Table::fmt(stats.ipc(), 1)});
  table.add_row({"IPC / peak", util::Table::pct(stats.ipc() / config.peak_ipc())});
  table.add_row({"L2 hit rate", util::Table::pct(stats.l2_hit_rate())});
  table.add_row({"DRAM read", util::Table::fmt(static_cast<double>(stats.dram_read_bytes) / 1e6, 2) + " MB"});
  table.add_row({"DRAM write", util::Table::fmt(static_cast<double>(stats.dram_write_bytes) / 1e6, 2) + " MB"});
  table.add_row({"DRAM utilization", util::Table::pct(sim::dram_utilization(stats, config))});
  const sim::EncryptionScheme family = config.scheme->family;
  if (family != sim::EncryptionScheme::kNone) {
    table.add_row({"encrypted bytes",
                   util::Table::fmt(static_cast<double>(stats.encrypted_bytes) / 1e6, 2) + " MB"});
    table.add_row({"bypassed bytes",
                   util::Table::fmt(static_cast<double>(stats.bypassed_bytes) / 1e6, 2) + " MB"});
    // Normalized over num_channels x engines_per_controller engines, so the
    // --engines ablations report honestly.
    table.add_row({"AES utilization", util::Table::pct(sim::aes_utilization(stats, config))});
  }
  if (family == sim::EncryptionScheme::kCounter) {
    table.add_row({"counter-cache hit rate", util::Table::pct(stats.counter_hit_rate())});
    table.add_row({"counter traffic",
                   util::Table::fmt(static_cast<double>(stats.counter_traffic_bytes) / 1e6, 2) + " MB"});
  }
  table.print();
}

/// Stages one of this tool's injection rows over a clean run: scheme rows
/// corrupt copies of the audit evidence, profile rows a copy of the cycle
/// profile.
verify::StagedInjection stage_injection(verify::Injection injection,
                                        const sim::SchemeInfo& entry,
                                        const verify::SchemeRunEvidence& evidence,
                                        const telemetry::CycleProfile& profile) {
  switch (injection) {
    case verify::Injection::kProfileConservation:
    case verify::Injection::kProfileTotal: {
      telemetry::CycleProfile corrupted = profile;
      if (corrupted.empty() || corrupted.layers.front().components.empty()) {
        return {verify::Report(), "no profile data to corrupt"};
      }
      telemetry::ComponentProfile& victim =
          corrupted.layers.front().components.front();
      victim.buckets[0] += 1;  // breaks conservation (sum != total)
      if (injection == verify::Injection::kProfileTotal) {
        victim.total_cycles += 1;  // restores conservation, breaks total
      }
      return {verify::run_profile_check(corrupted), ""};
    }
    case verify::Injection::kSchemeWire:
    case verify::Injection::kSchemeBoundary:
      // Baseline's wire policy has no must-cipher side, so there is no line
      // whose corruption these rules could object to.
      if (entry.scope == sim::ProtectionScope::kNone) {
        return {verify::Report(), "no must-cipher lines under scope none"};
      }
      break;
    default:
      break;
  }
  return {verify::run_scheme_injection(injection, entry, evidence), ""};
}

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const std::string workload = flags.get("workload", "vgg16");
  const sim::SchemeInfo& entry = sim::resolve_scheme(flags.get("scheme", "baseline"));
  const double ratio = flags.get_double("ratio", 0.5);
  const auto tiles = static_cast<std::uint64_t>(flags.get_int("tiles", 480));

  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &entry;
  config.counter_cache_kb = static_cast<int>(flags.get_int("counter-cache-kb", 96));
  config.split_counters = flags.get_bool("split-counters", false);
  config.engines_per_controller = static_cast<int>(flags.get_int("engines", 1));
  config.engine.throughput_gbps =
      flags.get_double("engine-gbps", config.engine.throughput_gbps);
  config.dram_total_gbps = flags.get_double("dram-gbps", config.dram_total_gbps);

  // Telemetry sinks are strictly opt-in; with none of --json/--trace/--profile
  // the simulation path is identical to a telemetry-free build.
  const std::string json_path = flags.get("json", "");
  const std::string trace_path = flags.get("trace", "");
  const auto sample_interval =
      static_cast<sim::Cycle>(flags.get_int("sample-interval", 10000));
  const auto max_samples =
      static_cast<std::size_t>(flags.get_int("max-samples", 0));
  const std::string folded_path = flags.get("profile-folded", "");
  const std::string inject = flags.get("inject", "");
  if (!inject.empty()) {
    (void)verify::select_injections(verify::InjectTool::kSim, inject);
  }
  const bool profile = flags.get_bool("profile", false) ||
                       !folded_path.empty() || !inject.empty();
  const std::string scheme_audit_json = flags.get("scheme-audit-json", "");
  const bool scheme_audit = flags.get_bool("scheme-audit", false) ||
                            !scheme_audit_json.empty() || !inject.empty();
  if (scheme_audit && workload != "vgg16" && workload != "resnet18" &&
      workload != "resnet34") {
    throw std::invalid_argument(
        "--scheme-audit/--inject need a network workload "
        "(vgg16|resnet18|resnet34): the taint probe classifies addresses "
        "against the network layout");
  }
  // With --inject, --json names the injection ledger, not the run report.
  const std::string report_path = inject.empty() ? json_path : "";
  std::unique_ptr<telemetry::RunTelemetry> collect;
  if (!json_path.empty() || !trace_path.empty() || profile) {
    telemetry::TelemetryOptions topts;
    topts.sample_interval = sample_interval;
    topts.max_samples = max_samples;
    topts.profile = profile;
    collect = std::make_unique<telemetry::RunTelemetry>(topts);
  }
  telemetry::RunInfo info;
  info.workload = workload;
  info.scheme = flags.get("scheme", "baseline");

  workload::RunOptions options;
  options.max_tiles_per_layer = tiles;
  options.plan.encryption_ratio = ratio;
  options.telemetry = collect.get();
  // Parallel per-layer simulation (0 = one worker per hardware thread).
  // Results are bitwise-identical to --jobs 1.
  options.jobs = static_cast<int>(flags.get_int("jobs", 1));
  // Sub-layer work units: --chunk N splits each layer's simulated slice into
  // tile-chunk waves of at most N tiles (0 = whole layer per unit). For a
  // fixed --chunk the results are bitwise-identical across --jobs.
  options.chunk_tiles = static_cast<std::uint64_t>(flags.get_int("chunk", 0));
  // Naive per-cycle run loop for differential testing of the event-skipping
  // fast path (identical results, much slower).
  options.fast_path = !flags.get_bool("no-fast-path", false);
  // The audit input reproduces the runner's layout bit-identically, which
  // is what lets the probe classify live bus addresses from outside.
  std::optional<verify::AnalysisInput> audit_input;
  std::optional<verify::TaintAuditor> auditor;
  verify::SchemeRunEvidence evidence;

  const bool single_layer =
      workload == "conv" || workload == "pool" || workload == "fc";
  if (single_layer) {
    // A lone layer is a network *body* layer, not a boundary layer; the
    // boundary policy would otherwise fully encrypt it regardless of ratio.
    options.plan.full_head_convs = 0;
    options.plan.full_tail_convs = 0;
    options.plan.full_tail_fcs = 0;
  }

  if (workload == "gemm") {
    workload::GemmSpec spec;
    spec.m = spec.n = spec.k = static_cast<int>(flags.get_int("dim", 1024));
    spec.a_base = 0x1000'0000;
    spec.b_base = 0x2000'0000;
    spec.c_base = 0x3000'0000;
    auto programs = workload::make_gemm_programs(
        spec, config.num_sms * config.warps_per_sm, tiles);
    sim::GpuSimulator simulator(config);
    simulator.set_fast_path(options.fast_path);
    simulator.load_work(std::move(programs));
    if (collect && collect->sampler()) simulator.set_sampler(collect->sampler());
    std::optional<telemetry::CycleProfiler> profiler;
    if (collect && collect->profiling()) {
      profiler.emplace();
      simulator.set_profiler(&*profiler);
    }
    simulator.run();
    std::printf("GEMM %dx%dx%d, scheme %s%s\n", spec.m, spec.n, spec.k,
                sim::scheme_name(entry.family),
                entry.selective() ? " (SEAL selective)" : "");
    const double scale = static_cast<double>(spec.total_tiles()) /
                         static_cast<double>(std::min<std::uint64_t>(
                             tiles ? tiles : spec.total_tiles(), spec.total_tiles()));
    print_stats(simulator.stats(), scale, config);
    if (collect) {
      info.workload = "gemm-" + std::to_string(spec.m);
      collect->layers().push_back(telemetry::make_layer_record(
          "gemm", simulator.stats(), config, scale, 0));
      telemetry::collect_component_metrics(simulator, collect->registry());
      collect->advance_timeline(simulator.stats().cycles);
      if (profiler) {
        telemetry::LayerCycleProfile layer_profile = profiler->take_profile();
        layer_profile.layer = "gemm";
        collect->profile().layers.push_back(std::move(layer_profile));
      }
    }
  } else if (workload == "conv" || workload == "pool" || workload == "fc") {
    models::LayerSpec spec;
    spec.name = workload;
    if (workload == "fc") {
      spec.type = models::LayerSpec::Type::kFc;
      spec.in_features = static_cast<int>(flags.get_int("in-features", 4096));
      spec.out_features = static_cast<int>(flags.get_int("out-features", 4096));
    } else {
      spec.type = workload == "conv" ? models::LayerSpec::Type::kConv
                                     : models::LayerSpec::Type::kPool;
      spec.in_channels = static_cast<int>(flags.get_int("in-ch", 64));
      spec.out_channels = static_cast<int>(
          flags.get_int("out-ch", workload == "pool" ? spec.in_channels : 64));
      spec.in_h = spec.in_w = static_cast<int>(flags.get_int("hw", 56));
      if (workload == "pool") {
        spec.kernel = spec.stride = 2;
        spec.padding = 0;
        spec.out_channels = spec.in_channels;
      } else {
        spec.kernel = static_cast<int>(flags.get_int("kernel", 3));
        spec.stride = static_cast<int>(flags.get_int("stride", 1));
        spec.padding = spec.kernel / 2;
      }
    }
    const auto result = workload::run_single_layer(spec, config, options);
    std::printf("%s layer, scheme %s%s\n", workload.c_str(),
                sim::scheme_name(entry.family),
                entry.selective() ? " (SEAL selective)" : "");
    print_stats(result.stats, result.scale, config);
  } else {
    const int input = static_cast<int>(flags.get_int("input", 224));
    const auto specs = workload == "vgg16"      ? models::vgg16_specs(input)
                       : workload == "resnet18" ? models::resnet18_specs(input)
                       : workload == "resnet34"
                           ? models::resnet34_specs(input)
                           : throw std::invalid_argument("unknown --workload " + workload);
    if (scheme_audit) {
      verify::BuildOptions build;
      build.plan = options.plan;
      // Only plan-row schemes carry an encryption plan; weights-only and
      // full schemes audit against the plain region map.
      build.selective = entry.scope == sim::ProtectionScope::kPlanRows;
      audit_input.emplace(verify::build_input(specs, build));
      auditor.emplace(&*audit_input);
      options.probe_hook = &*auditor;
    }
    const auto result = workload::run_network(specs, config, options);
    std::printf("%s (%d x %d input), scheme %s%s\n", workload.c_str(), input, input,
                sim::scheme_name(entry.family),
                entry.selective() ? " (SEAL selective)" : "");
    util::Table per_layer({"layer", "IPC", "full cycles"});
    for (const auto& layer : result.layers) {
      per_layer.add_row({layer.name, util::Table::fmt(layer.ipc(), 1),
                         util::Table::fmt(layer.full_cycles(), 0)});
    }
    per_layer.print();
    std::printf("\noverall IPC %.1f, latency %.2f ms @700MHz\n",
                result.overall_ipc(), result.total_cycles() / 700e3);
    if (scheme_audit) {
      for (const auto& layer : result.layers) {
        evidence.stats.merge_from(layer.stats);
      }
      evidence.input = &*audit_input;
      evidence.ledger = &auditor->ledger();
      evidence.config = config;
      verify::Report audit_report =
          verify::run_scheme_conformance(entry, evidence);
      verify::check_scheme_oracle(entry, *audit_input, audit_report);
      const verify::TaintLedger& ledger = auditor->ledger();
      std::printf("scheme audit: %llu bus bytes over %zu lines, digest %016llx\n",
                  static_cast<unsigned long long>(ledger.total_bytes()),
                  ledger.lines().size(),
                  static_cast<unsigned long long>(ledger.digest()));
      if (!scheme_audit_json.empty()) {
        util::JsonWriter json;
        json.begin_object();
        json.field("tool", "sealdl-sim");
        json.field("schema_version", 1);
        json.field("workload", workload);
        json.field("scheme", info.scheme);
        json.field("selective", entry.selective());
        json.field("encryption_ratio", ratio);
        json.key("ledger");
        ledger.write_json(json);
        json.key("report");
        audit_report.write_json(json);
        json.end_object();
        telemetry::write_text_file(scheme_audit_json, json.str());
        std::printf("wrote scheme-audit ledger to %s\n",
                    scheme_audit_json.c_str());
      }
      if (audit_report.error_count() > 0) {
        std::fputs(audit_report.to_text().c_str(), stderr);
        std::fprintf(stderr, "sealdl-sim: run violates %s's scheme contract\n",
                     entry.display);
        return 1;
      }
      std::printf("scheme audit: %s conforms to its contract (scope %s)\n",
                  entry.display, sim::protection_scope_name(entry.scope));
    }
  }

  if (collect) {
    info.provenance = telemetry::make_provenance(config, options.jobs,
                                                 {flags.get("scheme", "baseline")});
    info.provenance.fast_path = options.fast_path;
    if (collect->profiling()) {
      const verify::Report check =
          verify::run_profile_check(collect->profile());
      if (check.error_count() > 0) {
        std::fputs(check.to_text().c_str(), stderr);
        std::fprintf(stderr, "sealdl-sim: cycle profile violates the "
                             "profile.* invariants\n");
        return 1;
      }
    }
    if (!report_path.empty()) {
      telemetry::write_text_file(
          report_path, telemetry::run_report_json(info, config, *collect));
      std::printf("\nwrote JSON run report to %s\n", report_path.c_str());
    }
    if (!trace_path.empty()) {
      telemetry::write_text_file(
          trace_path, telemetry::chrome_trace_json(info, config, *collect));
      std::printf("wrote Perfetto trace to %s (open at https://ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
    if (!folded_path.empty()) {
      telemetry::write_text_file(
          folded_path,
          telemetry::collapsed_stack(info.workload, collect->profile()));
      std::printf("wrote collapsed-stack profile to %s (feed to flamegraph.pl "
                  "or speedscope)\n",
                  folded_path.c_str());
    }
  }

  for (const auto& unused : flags.unused()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", unused.c_str());
  }
  if (!inject.empty()) {
    return verify::run_injections(
        verify::InjectTool::kSim, inject,
        workload + "/" + entry.cli_name,
        [&](verify::Injection injection) {
          return stage_injection(injection, entry, evidence,
                                 collect->profile());
        },
        json_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
