// sealdl-serve: batched inference serving simulation front end.
//
// Profiles the served network(s) once per scheme configuration, then replays
// a seeded open-loop arrival schedule against a bounded admission queue and
// a batching scheduler (see src/serve). Everything runs in simulated time,
// so a given flag set reproduces byte-identically — including across --jobs
// values, which only parallelize the profiling stage:
//
//   sealdl-serve --networks vgg16 --scheme seal-d --rate 20 --duration 2
//   sealdl-serve --networks vgg16,resnet18 --rate 50 --policy shed-oldest
//   sealdl-serve --rate 100 --queue-depth 16 --batch 8 --policy block --jobs 4
//
// Fleet serving (src/serve/fleet.hpp): --devices N simulates N accelerators
// behind a --router (round-robin | least-loaded | affinity);
// --shard-stages S > 1 splits the model into S-stage pipelines of S devices
// each (N must be a multiple of S) with --microbatch interleaving and a
// --link-latency/--link-bpc inter-device link cost. Per-device counters land
// in the registry (fleet/d<i>/*), batch spans render one Perfetto track per
// device, and the fleet.* reconciliation rules prove the per-device
// decomposition sums back to the fleet totals after every run.
//
// Telemetry sinks (see docs/OBSERVABILITY.md):
//   --json report.json        run report: profile layers + batch spans +
//                             serve/* counters and latency histograms
//   --trace serve.trace.json  Perfetto trace with one span per batch plus a
//                             causally-linked span chain per request
//   --live-stats 0.25         stream one NDJSON progress line to stdout per
//                             0.25 s of simulated time
//   --profile-out spans.ndjson
//                             per-request lifecycle stage decomposition,
//                             one NDJSON record per request
//
// Self-test: --inject <name|all> stages this tool's rows of the injection
// table (verify/inject.hpp: fleet-requests|fleet-batches|fleet-stages|
// fleet-devices) on copies of the finished fleet report and exits 0 only if
// each fires its fleet.* rule; --json then names the injection ledger
// instead of the run report. The bus-level audit of the profiling runs lives
// in sealdl-sim --scheme-audit: profiling is the same jobs-invariant
// run_network call.
//
// Exit codes: 0 success, 1 runtime error, 2 usage error or invalid serving
// configuration — the config is statically validated up front
// (verify/serve_checkers.hpp, rule family serve.options.*) and violations
// print with their rule ids rather than asserting deep inside the scheduler.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "sim/scheme_registry.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "verify/fleet_checkers.hpp"
#include "verify/inject.hpp"
#include "verify/profile_checkers.hpp"
#include "verify/serve_checkers.hpp"

using namespace sealdl;

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t end = csv.find(',', begin);
    const std::string item =
        csv.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
    if (!item.empty()) out.push_back(item);
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return out;
}

/// Stages one fleet-* injection row on a copy of a healthy fleet report.
verify::StagedInjection stage_injection(verify::Injection injection,
                                        const serve::FleetOptions& options,
                                        const serve::FleetReport& report) {
  serve::FleetReport corrupted = report;
  switch (injection) {
    case verify::Injection::kFleetRequests:
      corrupted.device_reports.front().completed += 1;
      break;
    case verify::Injection::kFleetBatches:
      corrupted.device_reports.front().batches += 1;
      break;
    case verify::Injection::kFleetStages:
      corrupted.totals.stage_cycles_sum =
          corrupted.totals.stage_cycles_sum * 1.01 + 1.0;
      break;
    default:
      corrupted.device_reports.front().device += 1;
      break;
  }
  return {verify::run_fleet_report_check(options, corrupted), ""};
}

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const std::string networks_csv = flags.get("networks", "vgg16");
  const std::string scheme_name = flags.get("scheme", "baseline");
  const sim::SchemeInfo& entry = sim::resolve_scheme(scheme_name);
  const double ratio = flags.get_double("ratio", 0.5);
  const auto tiles = static_cast<std::uint64_t>(flags.get_int("tiles", 480));
  const int jobs = static_cast<int>(flags.get_int("jobs", 1));

  serve::ServeOptions serve_options;
  serve_options.rate_rps = flags.get_double("rate", 20.0);
  serve_options.duration_s = flags.get_double("duration", 1.0);
  serve_options.queue_depth =
      static_cast<std::size_t>(flags.get_int("queue-depth", 32));
  serve_options.max_batch = static_cast<int>(flags.get_int("batch", 4));
  serve_options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  serve_options.dispatch_overhead_cycles =
      flags.get_double("dispatch-overhead", 20000.0);
  serve_options.live_stats = flags.has("live-stats");
  serve_options.live_stats_interval_s = flags.get_double("live-stats", 0.25);
  serve_options.profile = flags.has("profile-out");
  serve_options.profile_path = flags.get("profile-out", "");

  serve::FleetOptions fleet_options;
  fleet_options.devices = static_cast<int>(flags.get_int("devices", 1));
  fleet_options.shard_stages =
      static_cast<int>(flags.get_int("shard-stages", 1));
  fleet_options.microbatch = static_cast<int>(flags.get_int("microbatch", 2));
  fleet_options.link_latency_cycles =
      flags.get_double("link-latency", 2000.0);
  fleet_options.link_bytes_per_cycle = flags.get_double("link-bpc", 16.0);

  const std::string inject = flags.get("inject", "");
  if (!inject.empty()) {
    (void)verify::select_injections(verify::InjectTool::kServe, inject);
  }

  // Static config validation: collect every violation (including an
  // unparsable --policy or --router) into one report so the operator sees
  // the full list, then refuse with exit code 2 and the stable rule ids.
  verify::Report options_report;
  try {
    serve_options.policy = serve::parse_policy(flags.get("policy", "drop"));
  } catch (const std::invalid_argument& e) {
    verify::Diagnostic diagnostic;
    diagnostic.rule = "serve.options.policy";
    diagnostic.message = e.what();
    options_report.add(std::move(diagnostic));
  }
  try {
    fleet_options.router =
        serve::parse_router(flags.get("router", "round-robin"));
  } catch (const std::invalid_argument& e) {
    verify::Diagnostic diagnostic;
    diagnostic.rule = "fleet.options.router";
    diagnostic.message = e.what();
    options_report.add(std::move(diagnostic));
  }
  verify::check_serve_options(serve_options, jobs, options_report);
  verify::check_fleet_options(fleet_options, options_report);
  if (options_report.error_count() > 0) {
    std::fputs(options_report.to_text().c_str(), stderr);
    std::fprintf(stderr, "sealdl-serve: invalid serving configuration\n");
    return 2;
  }

  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &entry;

  // With --inject, --json names the injection ledger, not the run report.
  const std::string json_path = flags.get("json", "");
  const std::string report_path = inject.empty() ? json_path : "";
  const std::string trace_path = flags.get("trace", "");
  const auto sample_interval =
      static_cast<sim::Cycle>(flags.get_int("sample-interval", 0));
  std::unique_ptr<telemetry::RunTelemetry> collect;
  if (!report_path.empty() || !trace_path.empty() || serve_options.profile) {
    telemetry::TelemetryOptions topts;
    topts.sample_interval = sample_interval;
    collect = std::make_unique<telemetry::RunTelemetry>(topts);
  }
  for (const auto& unused : flags.unused()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", unused.c_str());
  }

  std::vector<serve::NamedNetwork> networks;
  for (const std::string& name : split_csv(networks_csv)) {
    networks.push_back(serve::named_network(name));
  }

  workload::RunOptions run_options;
  run_options.max_tiles_per_layer = tiles;
  run_options.plan.encryption_ratio = ratio;

  const serve::ServiceModel model(networks, config, run_options,
                                  serve_options.max_batch, jobs, collect.get());

  // NDJSON progress lines go to stdout so they can be piped while the table
  // still prints at the end.
  serve::LiveStatsSink live_sink;
  if (serve_options.live_stats) {
    live_sink = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
    };
  }
  const serve::FleetReport fleet_report = serve::run_fleet(
      model, serve_options, fleet_options, config, collect.get(), live_sink);
  const serve::ServeReport& report = fleet_report.totals;

  if (!inject.empty()) {
    return verify::run_injections(
        verify::InjectTool::kServe, inject, networks_csv + "/" + scheme_name,
        [&](verify::Injection injection) {
          return stage_injection(injection, fleet_options, fleet_report);
        },
        json_path);
  }

  // Post-run reconciliation. fleet.* proves the per-device decomposition
  // sums back to the fleet totals; profile.serve.stages proves the
  // per-request lifecycle stages sum to the measured latency. A failure in
  // either is a scheduler accounting bug, not a configuration error.
  verify::Report stage_report;
  verify::check_serve_stage_totals(report.stage_cycles_sum,
                                   report.latency_cycles_sum, stage_report);
  verify::check_fleet_report(fleet_options, fleet_report, stage_report);
  if (stage_report.error_count() > 0) {
    std::fputs(stage_report.to_text().c_str(), stderr);
    std::fprintf(stderr, "sealdl-serve: fleet accounting does not reconcile\n");
    return 1;
  }

  std::printf("sealdl-serve: %s, scheme %s, %.1f req/s for %.2f s, queue %zu, "
              "batch <= %d, policy %s\n",
              networks_csv.c_str(), scheme_name.c_str(), serve_options.rate_rps,
              serve_options.duration_s, serve_options.queue_depth,
              serve_options.max_batch, serve::policy_name(serve_options.policy));
  if (fleet_options.devices > 1 || fleet_options.shard_stages > 1) {
    std::printf("fleet: %d device(s) as %d pipeline(s) x %d stage(s), "
                "router %s, microbatch %d\n",
                fleet_report.devices, fleet_report.pipelines,
                fleet_report.stages, serve::router_name(fleet_options.router),
                fleet_options.microbatch);
  }
  util::Table table({"metric", "value"});
  table.add_row({"generated", std::to_string(report.generated)});
  table.add_row({"completed", std::to_string(report.completed)});
  table.add_row({"dropped", std::to_string(report.dropped)});
  table.add_row({"shed", std::to_string(report.shed)});
  table.add_row({"blocked (backlogged)", std::to_string(report.blocked)});
  table.add_row({"batches", std::to_string(report.batches)});
  table.add_row({"mean batch", util::Table::fmt(report.mean_batch, 2)});
  table.add_row({"p50 latency", util::Table::fmt(report.p50_ms, 2) + " ms"});
  table.add_row({"p95 latency", util::Table::fmt(report.p95_ms, 2) + " ms"});
  table.add_row({"p99 latency", util::Table::fmt(report.p99_ms, 2) + " ms"});
  table.add_row({"mean queue wait", util::Table::fmt(report.mean_queue_ms, 2) + " ms"});
  table.add_row({"throughput", util::Table::fmt(report.throughput_rps, 2) + " req/s"});
  table.add_row({"drop rate", util::Table::pct(report.drop_rate)});
  table.print();

  // Per-stage latency decomposition of completed requests (lifecycle spans:
  // backlog -> queue -> dispatch -> execute).
  util::Table stages({"stage", "p50", "p95", "p99"});
  const auto stage_row = [&stages](const char* name,
                                   const serve::StageLatency& stage) {
    stages.add_row({name, util::Table::fmt(stage.p50_ms, 2) + " ms",
                    util::Table::fmt(stage.p95_ms, 2) + " ms",
                    util::Table::fmt(stage.p99_ms, 2) + " ms"});
  };
  stage_row("backlog", report.stage_backlog);
  stage_row("queue", report.stage_queue);
  stage_row("dispatch", report.stage_dispatch);
  stage_row("execute", report.stage_execute);
  std::printf("\nstage latency (completed requests)\n");
  stages.print();

  // Per-device decomposition: admission outcomes live on each pipeline's
  // stage-0 device; stage runs and busy time on every device.
  if (fleet_options.devices > 1 || fleet_options.shard_stages > 1) {
    util::Table devices({"device", "pipe/stage", "routed", "completed",
                         "dropped", "shed", "batches", "stage runs",
                         "busy", "util"});
    const double end = static_cast<double>(report.end_cycle);
    for (const serve::DeviceReport& dev : fleet_report.device_reports) {
      // snprintf rather than "d" + std::to_string(...): GCC 12 raises a false
      // -Wrestrict on operator+(const char*, std::string&&) once inlined here.
      char device[16];
      char pipe_stage[32];
      std::snprintf(device, sizeof device, "d%d", dev.device);
      std::snprintf(pipe_stage, sizeof pipe_stage, "p%d/s%d", dev.pipeline,
                    dev.stage);
      devices.add_row(
          {device, pipe_stage,
           std::to_string(dev.routed), std::to_string(dev.completed),
           std::to_string(dev.dropped), std::to_string(dev.shed),
           std::to_string(dev.batches), std::to_string(dev.stage_runs),
           util::Table::fmt(dev.busy_cycles / 1e6, 2) + " Mcyc",
           util::Table::pct(end > 0.0 ? dev.busy_cycles / end : 0.0)});
    }
    std::printf("\nper-device fleet decomposition\n");
    devices.print();
  }

  if (collect) {
    telemetry::RunInfo info;
    info.tool = "sealdl-serve";
    info.workload = networks_csv;
    info.scheme = scheme_name;
    info.seed = serve_options.seed;
    info.provenance =
        telemetry::make_provenance(config, jobs, {scheme_name});
    if (!report_path.empty()) {
      telemetry::write_text_file(
          report_path, telemetry::run_report_json(info, config, *collect));
    }
    if (!trace_path.empty()) {
      telemetry::write_text_file(
          trace_path, telemetry::chrome_trace_json(info, config, *collect));
    }
    if (serve_options.profile) {
      // One NDJSON record per request, in lifecycle-completion order.
      std::string ndjson;
      for (const telemetry::RequestSpanRecord& span : collect->requests()) {
        util::JsonWriter json;
        json.begin_object();
        json.field("id", span.id);
        json.field("network", span.network);
        json.field("outcome", span.outcome);
        json.field("arrival", span.arrival);
        json.field("backlog_cycles", span.backlog_cycles);
        json.field("queue_cycles", span.queue_cycles);
        json.field("dispatch_cycles", span.dispatch_cycles);
        json.field("execute_cycles", span.execute_cycles);
        json.field("batch", span.batch);
        if (span.device >= 0) json.field("device", span.device);
        json.end_object();
        ndjson += json.str();
        ndjson += '\n';
      }
      telemetry::write_text_file(serve_options.profile_path, ndjson);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "sealdl-serve: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sealdl-serve: %s\n", e.what());
    return 1;
  }
}
