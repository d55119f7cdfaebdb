// Parallel-scaling bench: wall-clock time of the fig7 full-network workload
// (VGG-16 / ResNet-18 / ResNet-34 under the five schemes) at 1/2/4/8 layer
// jobs, emitted as BENCH_parallel.json to seed the perf trajectory.
//
//   ./bench_parallel_scaling [--tiles 480] [--ratio 0.5] [--input 224]
//       [--chunk 0] [--no-fast-path] [--out BENCH_parallel.json]
//
// Every jobs level simulates the identical workload (the runner is
// bitwise-deterministic across jobs — see tests/test_parallel_determinism),
// so the per-level cycle checksum doubles as a correctness gate here.
// --chunk N additionally splits each layer into tile-chunk waves of <= N
// tiles (more schedulable units per network); --no-fast-path times the naive
// per-cycle reference loop instead of the event-skipping one. Both knobs are
// recorded in the artifact so trajectories only ever compare like with like.
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_common.hpp"
#include "models/layer_spec.hpp"
#include "telemetry/report.hpp"
#include "util/json.hpp"

namespace sealdl {
namespace {

int main_impl(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const auto tiles = static_cast<std::uint64_t>(flags.get_int("tiles", 480));
  const double ratio = flags.get_double("ratio", 0.5);
  const int input = static_cast<int>(flags.get_int("input", 224));
  const auto chunk = static_cast<std::uint64_t>(flags.get_int("chunk", 0));
  const bool fast_path = !flags.get_bool("no-fast-path", false);
  const std::string out = flags.get("out", "BENCH_parallel.json");

  bench::banner("Parallel scaling — fig7 workload wall time vs --jobs",
                "layer-level parallelism should cut full-sweep turnaround "
                "roughly linearly until layer count or host cores saturate");

  const std::vector<std::pair<std::string, std::vector<models::LayerSpec>>> nets = {
      {"VGG-16", models::vgg16_specs(input)},
      {"ResNet-18", models::resnet18_specs(input)},
      {"ResNet-34", models::resnet34_specs(input)},
  };
  const auto schemes = bench::five_schemes();

  // One fig7 sweep: every scheme over every network.
  const auto sweep = [&](int jobs) {
    double cycle_checksum = 0.0;
    for (const auto& scheme : schemes) {
      for (const auto& net : nets) {
        workload::RunOptions options;
        options.max_tiles_per_layer = tiles;
        options.plan = bench::default_plan();
        options.plan.encryption_ratio = ratio;
        options.jobs = jobs;
        options.chunk_tiles = chunk;
        options.fast_path = fast_path;
        cycle_checksum +=
            workload::run_network(net.second, bench::configure(scheme), options)
                .total_cycles();
      }
    }
    return cycle_checksum;
  };

  struct Point {
    int jobs;
    double wall_ms;
    double checksum;
  };
  std::vector<Point> points;
  util::Table table({"jobs", "wall s", "speedup vs serial"});
  double serial_ms = 0.0;
  for (const int jobs : {1, 2, 4, 8}) {
    const auto begin = std::chrono::steady_clock::now();
    const double checksum = sweep(jobs);
    const auto end = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(end - begin).count();
    if (jobs == 1) serial_ms = wall_ms;
    points.push_back({jobs, wall_ms, checksum});
    table.add_row({std::to_string(jobs), util::Table::fmt(wall_ms / 1e3, 2),
                   util::Table::fmt(serial_ms / wall_ms, 2) + "x"});
    // Same workload at every level, or the timing comparison is meaningless.
    if (checksum != points.front().checksum) {
      std::fprintf(stderr, "error: cycle checksum diverged at jobs=%d\n", jobs);
      return 1;
    }
  }
  table.print();

  const unsigned hw = std::thread::hardware_concurrency();
  util::JsonWriter json;
  json.begin_object();
  json.field("bench", "bench_parallel_scaling");
  json.field("workload", "fig7: vgg16+resnet18+resnet34 x 5 schemes");
  json.field("input", input);
  json.field("tiles", static_cast<std::uint64_t>(tiles));
  json.field("ratio", ratio);
  json.field("chunk", chunk);
  json.field("fast_path", fast_path);
  // Speedups only mean anything relative to the cores the host exposed.
  json.field("host_cores", static_cast<std::uint64_t>(hw ? hw : 1));
  // jobs=0 in the provenance block flags a sweep over several job counts.
  bench::write_bench_provenance(json, bench::configure(schemes.front()),
                                /*jobs=*/0, bench::five_scheme_names(),
                                fast_path);
  json.field("cycle_checksum", points.front().checksum);
  json.key("runs").begin_array();
  for (const auto& point : points) {
    json.begin_object();
    json.field("jobs", point.jobs);
    json.field("wall_ms", point.wall_ms);
    json.field("speedup_vs_serial", serial_ms / point.wall_ms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  telemetry::write_text_file(out, json.str());
  std::printf("\nwrote %s\n", out.c_str());

  bench::check_flags(flags);
  return 0;
}

}  // namespace
}  // namespace sealdl

int main(int argc, char** argv) { return sealdl::main_impl(argc, argv); }
