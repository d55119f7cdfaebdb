// Serving bench: batched inference latency/throughput under offered load x
// encryption scheme, emitted as BENCH_serving.json.
//
//   ./bench_serving [--tiles 240] [--ratio 0.5] [--duration 0.2]
//       [--batch 4] [--queue-depth 16] [--policy drop] [--jobs 1]
//       [--slo 250] [--capacity-duration 120] [--out BENCH_serving.json]
//
// The sweep holds the arrival schedule fixed per rate (same seed for every
// scheme) so latency differences are purely the encryption configuration's
// service-time cost. The SEAL sanity gate mirrors the paper's headline: at
// the 50% ratio, SEAL-D service time must land strictly between Baseline
// and Direct.
//
// The capacity sweep then pushes each scheme to its saturation knee on
// fleets of 1, 2 and 4 devices (least-loaded router): capacity is the
// largest integer offered rate the fleet sustains over a long horizon
// (--capacity-duration seconds of simulated time, thousands of requests)
// with p99 latency within the --slo and zero lost requests. A second gate
// requires SEAL-D capacity strictly between Direct and Baseline at every
// fleet size — the serving-level restatement of the same headline.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_common.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace sealdl {
namespace {

/// One capacity probe: does the fleet sustain `rate` within the SLO without
/// losing requests? Deterministic — fixed seed, simulated time only.
struct Probe {
  bool sustained = false;
  serve::ServeReport report;
};

Probe probe_capacity(const serve::ServiceModel& model,
                     const serve::ServeOptions& base,
                     const serve::FleetOptions& fleet,
                     const sim::GpuConfig& config, double rate,
                     double duration_s, double slo_ms) {
  serve::ServeOptions options = base;
  options.rate_rps = rate;
  options.duration_s = duration_s;
  Probe probe;
  probe.report =
      serve::run_fleet(model, options, fleet, config, nullptr).totals;
  probe.sustained = probe.report.generated > 0 &&
                    probe.report.completed == probe.report.generated &&
                    probe.report.p99_ms <= slo_ms;
  return probe;
}

/// Largest integer req/s the fleet sustains (exponential bracket, then
/// bisection; ~15 deterministic probes). Returns the winning rate and its
/// report; rate 0 when even 1 req/s misses the SLO.
struct Capacity {
  double rate_rps = 0.0;
  serve::ServeReport report;
};

Capacity find_capacity(const serve::ServiceModel& model,
                       const serve::ServeOptions& base,
                       const serve::FleetOptions& fleet,
                       const sim::GpuConfig& config, double duration_s,
                       double slo_ms, double service_ms_b1) {
  const auto sustains = [&](double rate, Capacity* keep) {
    const Probe probe =
        probe_capacity(model, base, fleet, config, rate, duration_s, slo_ms);
    if (probe.sustained && keep) {
      keep->rate_rps = rate;
      keep->report = probe.report;
    }
    return probe.sustained;
  };
  Capacity best;
  if (!sustains(1.0, &best)) return best;
  // Bracket: start near the analytic single-inference bound and double
  // until the fleet buckles (batching can beat the bound, hence the loop).
  double lo = 1.0;
  double hi = std::max(
      2.0, std::ceil(static_cast<double>(fleet.devices) * 1000.0 / service_ms_b1));
  while (sustains(hi, &best)) {
    lo = hi;
    hi *= 2.0;
    if (hi > 1e6) return best;  // unbounded within any sane budget
  }
  if (lo < best.rate_rps) lo = best.rate_rps;
  while (hi - lo > 1.0) {
    const double mid = std::floor((lo + hi) / 2.0);
    if (sustains(mid, &best)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

int main_impl(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const auto tiles = flags.get_uint("tiles", 240);
  const double ratio = flags.get_double("ratio", 0.5);
  const double duration = flags.get_double("duration", 0.2);
  const int max_batch = static_cast<int>(flags.get_int("batch", 4));
  const auto queue_depth =
      static_cast<std::size_t>(flags.get_uint("queue-depth", 16));
  const std::string policy_name = flags.get("policy", "drop");
  const int jobs = bench::jobs_from_flags(flags);
  const double slo_ms = flags.get_double("slo", 250.0);
  const double capacity_duration = flags.get_double("capacity-duration", 120.0);
  const std::string out = flags.get("out", "BENCH_serving.json");
  flags.reject_unknown();

  bench::banner("Serving — offered load x scheme (VGG-16, open-loop Poisson)",
                "encryption inflates service time, so the same offered load "
                "drives higher latency percentiles and earlier overload; "
                "SEAL p=50% must land between Baseline and Direct");

  const std::vector<double> rates = {10.0, 40.0, 160.0};
  // All registered schemes: the paper's five (Baseline first, which the
  // seal/capacity gates below index by position) plus the rivals.
  const auto schemes = bench::all_schemes();

  serve::ServeOptions serve_options;
  serve_options.duration_s = duration;
  serve_options.queue_depth = queue_depth;
  serve_options.max_batch = max_batch;
  serve_options.policy = serve::parse_policy(policy_name);

  struct Cell {
    double rate;
    serve::ServeReport report;
  };
  struct CapacityCell {
    int devices;
    Capacity capacity;
  };
  struct Row {
    std::string scheme;
    double service_ms_b1;  ///< batch-1 inference latency in ms
    std::vector<Cell> cells;
    std::vector<CapacityCell> capacities;
  };
  std::vector<Row> rows;
  const std::vector<int> fleet_sizes = {1, 2, 4};

  util::Table table({"scheme", "rate req/s", "p50 ms", "p95 ms", "p99 ms",
                     "throughput", "drop rate", "mean batch"});
  for (const auto& scheme : schemes) {
    const sim::GpuConfig config = bench::configure(scheme);
    workload::RunOptions options;
    options.max_tiles_per_layer = tiles;
    options.plan = bench::default_plan();
    options.plan.encryption_ratio = ratio;

    const serve::ServiceModel model({serve::named_network("vgg16")}, config,
                                    options, max_batch, jobs, nullptr);
    Row row;
    row.scheme = scheme.name;
    row.service_ms_b1 =
        model.service_cycles(0, 1) / (config.core_mhz * 1e3);
    for (const double rate : rates) {
      serve::ServeOptions cell_options = serve_options;
      cell_options.rate_rps = rate;
      Cell cell{rate, serve::run_server(model, cell_options, config, nullptr)};
      table.add_row({scheme.name, util::Table::fmt(rate, 0),
                     util::Table::fmt(cell.report.p50_ms, 1),
                     util::Table::fmt(cell.report.p95_ms, 1),
                     util::Table::fmt(cell.report.p99_ms, 1),
                     util::Table::fmt(cell.report.throughput_rps, 1),
                     util::Table::pct(cell.report.drop_rate),
                     util::Table::fmt(cell.report.mean_batch, 2)});
      row.cells.push_back(std::move(cell));
    }
    // Saturation knee per fleet size: the profiled model is reused, so the
    // whole capacity search costs event-loop time only.
    for (const int devices : fleet_sizes) {
      serve::FleetOptions fleet;
      fleet.devices = devices;
      fleet.router = serve::RouterPolicy::kLeastLoaded;
      CapacityCell cell{devices,
                        find_capacity(model, serve_options, fleet, config,
                                      capacity_duration, slo_ms,
                                      row.service_ms_b1)};
      row.capacities.push_back(std::move(cell));
    }
    rows.push_back(std::move(row));
  }
  table.print();

  std::printf("\ncapacity: max sustained req/s at p99 <= %.0f ms with zero "
              "loss over %.0f s simulated (least-loaded router)\n",
              slo_ms, capacity_duration);
  util::Table capacity_table(
      {"scheme", "devices", "capacity req/s", "p99 ms", "completed"});
  for (const Row& row : rows) {
    for (const CapacityCell& cell : row.capacities) {
      capacity_table.add_row(
          {row.scheme, std::to_string(cell.devices),
           util::Table::fmt(cell.capacity.rate_rps, 0),
           util::Table::fmt(cell.capacity.report.p99_ms, 1),
           std::to_string(cell.capacity.report.completed)});
    }
  }
  capacity_table.print();

  // SEAL sanity gate (acceptance criterion): the 50%-ratio SEAL-D service
  // time must land strictly between Baseline and full Direct.
  const double base_ms = rows[0].service_ms_b1;    // Baseline
  const double direct_ms = rows[1].service_ms_b1;  // Direct
  const double seal_ms = rows[3].service_ms_b1;    // SEAL-D
  std::printf("\nbatch-1 service: baseline %.2f ms, seal-d %.2f ms, direct %.2f ms\n",
              base_ms, seal_ms, direct_ms);
  if (!(base_ms < seal_ms && seal_ms < direct_ms)) {
    std::fprintf(stderr,
                 "error: SEAL-D service time not between Baseline and Direct\n");
    return 1;
  }

  // Capacity gate: slower service must buy strictly less capacity at every
  // fleet size — Direct < SEAL-D < Baseline in sustained req/s.
  bool capacity_ordered = true;
  for (std::size_t i = 0; i < fleet_sizes.size(); ++i) {
    const double base_cap = rows[0].capacities[i].capacity.rate_rps;
    const double direct_cap = rows[1].capacities[i].capacity.rate_rps;
    const double seal_cap = rows[3].capacities[i].capacity.rate_rps;
    std::printf("capacity at %d device(s): baseline %.0f, seal-d %.0f, "
                "direct %.0f req/s\n",
                fleet_sizes[i], base_cap, seal_cap, direct_cap);
    if (!(direct_cap < seal_cap && seal_cap < base_cap)) {
      capacity_ordered = false;
    }
  }
  if (!capacity_ordered) {
    std::fprintf(stderr, "error: SEAL-D capacity not strictly between Direct "
                         "and Baseline at every fleet size\n");
    return 1;
  }

  util::JsonWriter json;
  json.begin_object();
  json.field("bench", "bench_serving");
  json.field("workload", "vgg16 serving, open-loop poisson");
  json.field("tiles", static_cast<std::uint64_t>(tiles));
  json.field("ratio", ratio);
  json.field("duration_s", duration);
  json.field("queue_depth", static_cast<std::uint64_t>(queue_depth));
  json.field("max_batch", max_batch);
  json.field("policy", policy_name);
  bench::write_bench_provenance(json, bench::configure(schemes.front()), jobs,
                                bench::scheme_names(schemes));
  json.key("seal_check").begin_object();
  json.field("baseline_ms", base_ms);
  json.field("seal_d_ms", seal_ms);
  json.field("direct_ms", direct_ms);
  json.field("between", base_ms < seal_ms && seal_ms < direct_ms);
  json.end_object();
  json.key("capacity").begin_object();
  json.field("slo_p99_ms", slo_ms);
  json.field("duration_s", capacity_duration);
  json.field("router", "least-loaded");
  json.field("ordered", capacity_ordered);
  json.end_object();
  json.key("schemes").begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.field("scheme", row.scheme);
    json.field("service_ms_b1", row.service_ms_b1);
    json.key("cells").begin_array();
    for (const Cell& cell : row.cells) {
      json.begin_object();
      json.field("rate_rps", cell.rate);
      json.field("generated", cell.report.generated);
      json.field("completed", cell.report.completed);
      json.field("dropped", cell.report.dropped);
      json.field("shed", cell.report.shed);
      json.field("batches", cell.report.batches);
      json.field("mean_batch", cell.report.mean_batch);
      json.field("p50_ms", cell.report.p50_ms);
      json.field("p95_ms", cell.report.p95_ms);
      json.field("p99_ms", cell.report.p99_ms);
      json.field("throughput_rps", cell.report.throughput_rps);
      json.field("drop_rate", cell.report.drop_rate);
      json.end_object();
    }
    json.end_array();
    json.key("capacity").begin_array();
    for (const CapacityCell& cell : row.capacities) {
      json.begin_object();
      json.field("devices", cell.devices);
      json.field("capacity_rps", cell.capacity.rate_rps);
      json.field("p99_ms", cell.capacity.report.p99_ms);
      json.field("completed", cell.capacity.report.completed);
      json.field("mean_batch", cell.capacity.report.mean_batch);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  telemetry::write_text_file(out, json.str());
  std::printf("wrote %s\n", out.c_str());

  return 0;
}

}  // namespace
}  // namespace sealdl

int main(int argc, char** argv) {
  return sealdl::bench::run_main(sealdl::main_impl, argc, argv);
}
