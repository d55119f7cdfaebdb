// Golden harness for parallel layer-level simulation: run_network at any
// jobs level (1/2/4/8) must be *bitwise*-identical to jobs=1 — stats,
// per-layer phase records, metrics registry, cycle profile, and the sampled
// time series — across three networks, two encryption ratios, and several
// tile-chunk granularities; the shared plan/layout the parallel run
// simulates must stay sealdl-check clean; and every profiled run must pass
// the profile.* conservation rules. Also regression-tests that two runners
// executing concurrently do not perturb each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <future>
#include <numeric>
#include <thread>

#include "models/layer_spec.hpp"
#include "sim/bus_probe.hpp"
#include "sim/scheme_registry.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "verify/checker.hpp"
#include "verify/profile_checkers.hpp"
#include "workload/layer_trace.hpp"
#include "workload/network_runner.hpp"

namespace sealdl::workload {
namespace {

// Small but real: every layer of each network is simulated (capped tiles),
// so the goldens cover CONV, POOL, FC, and residual topologies.
constexpr int kInput = 32;
constexpr std::uint64_t kTiles = 24;
constexpr sim::Cycle kSampleInterval = 2000;

std::vector<models::LayerSpec> specs_for(const std::string& net) {
  if (net == "vgg16") return models::vgg16_specs(kInput);
  if (net == "resnet18") return models::resnet18_specs(kInput);
  return models::resnet34_specs(kInput);
}

struct SimRun {
  NetworkResult result;
  telemetry::RunTelemetry telemetry;

  SimRun()
      : telemetry(telemetry::TelemetryOptions{kSampleInterval, /*max_samples=*/0,
                                              /*profile=*/true}) {}
};

SimRun run_with_jobs(const std::vector<models::LayerSpec>& specs, double ratio,
                     int jobs, std::uint64_t chunk_tiles = 0) {
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &sim::resolve_scheme("seal-d");
  RunOptions options;
  options.max_tiles_per_layer = kTiles;
  options.plan.encryption_ratio = ratio;
  options.jobs = jobs;
  options.chunk_tiles = chunk_tiles;
  SimRun run;
  options.telemetry = &run.telemetry;
  run.result = run_network(specs, config, options);
  return run;
}

/// Every profiled run — any jobs level, any chunking — must satisfy the
/// profile.* rules: per-component buckets sum exactly to the component
/// total, and all components of a layer agree on that total.
void expect_profile_conserved(const SimRun& run) {
  ASSERT_FALSE(run.telemetry.profile().empty());
  const verify::Report report = verify::run_profile_check(run.telemetry.profile());
  EXPECT_EQ(report.error_count(), 0u) << report.to_text();
}

std::string registry_json(const telemetry::RunTelemetry& telemetry) {
  util::JsonWriter json;
  telemetry.registry().write_json(json);
  return json.str();
}

void expect_stats_identical(const sim::SimStats& a, const sim::SimStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.warp_instructions, b.warp_instructions);
  EXPECT_EQ(a.thread_instructions, b.thread_instructions);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
  EXPECT_EQ(a.encrypted_bytes, b.encrypted_bytes);
  EXPECT_EQ(a.bypassed_bytes, b.bypassed_bytes);
  EXPECT_EQ(a.aes_busy_cycles, b.aes_busy_cycles);      // exact ==, no tolerance
  EXPECT_EQ(a.dram_busy_cycles, b.dram_busy_cycles);
  EXPECT_EQ(a.counter_hits, b.counter_hits);
  EXPECT_EQ(a.counter_misses, b.counter_misses);
  EXPECT_EQ(a.counter_traffic_bytes, b.counter_traffic_bytes);
}

void expect_runs_identical(const SimRun& serial, const SimRun& parallel) {
  ASSERT_EQ(serial.result.layers.size(), parallel.result.layers.size());
  for (std::size_t i = 0; i < serial.result.layers.size(); ++i) {
    const auto& a = serial.result.layers[i];
    const auto& b = parallel.result.layers[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.scale, b.scale);
    expect_stats_identical(a.stats, b.stats);
  }
  EXPECT_EQ(serial.result.total_cycles(), parallel.result.total_cycles());
  EXPECT_EQ(serial.result.overall_ipc(), parallel.result.overall_ipc());

  // Telemetry: phase records field by field.
  const auto& la = serial.telemetry.layers();
  const auto& lb = parallel.telemetry.layers();
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].name, lb[i].name);
    EXPECT_EQ(la[i].start_cycle, lb[i].start_cycle);
    EXPECT_EQ(la[i].sim_cycles, lb[i].sim_cycles);
    EXPECT_EQ(la[i].scale, lb[i].scale);
    EXPECT_EQ(la[i].full_cycles, lb[i].full_cycles);
    EXPECT_EQ(la[i].ipc, lb[i].ipc);
    EXPECT_EQ(la[i].thread_instructions, lb[i].thread_instructions);
    EXPECT_EQ(la[i].dram_bytes, lb[i].dram_bytes);
    EXPECT_EQ(la[i].encrypted_bytes, lb[i].encrypted_bytes);
    EXPECT_EQ(la[i].bypassed_bytes, lb[i].bypassed_bytes);
    EXPECT_EQ(la[i].encrypted_fraction, lb[i].encrypted_fraction);
    EXPECT_EQ(la[i].dram_util, lb[i].dram_util);
    EXPECT_EQ(la[i].aes_util, lb[i].aes_util);
    EXPECT_EQ(la[i].l2_hit_rate, lb[i].l2_hit_rate);
    EXPECT_EQ(la[i].bound, lb[i].bound);
  }
  EXPECT_EQ(serial.telemetry.timeline(), parallel.telemetry.timeline());

  // Metrics registry: the serialized document is the byte-exact golden.
  EXPECT_EQ(registry_json(serial.telemetry), registry_json(parallel.telemetry));

  // Cycle profile: same byte-exact-document discipline.
  EXPECT_EQ(telemetry::cycle_profile_json(serial.telemetry.profile()),
            telemetry::cycle_profile_json(parallel.telemetry.profile()));

  // Time series: identical sample count, positions, and values.
  const auto* sa = serial.telemetry.sampler();
  const auto* sb = parallel.telemetry.sampler();
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  ASSERT_EQ(sa->samples().size(), sb->samples().size());
  for (std::size_t i = 0; i < sa->samples().size(); ++i) {
    EXPECT_EQ(sa->samples()[i].cycle, sb->samples()[i].cycle);
    EXPECT_EQ(sa->samples()[i].ipc, sb->samples()[i].ipc);
    EXPECT_EQ(sa->samples()[i].dram_util, sb->samples()[i].dram_util);
    EXPECT_EQ(sa->samples()[i].aes_util, sb->samples()[i].aes_util);
    EXPECT_EQ(sa->samples()[i].dram_bytes, sb->samples()[i].dram_bytes);
    EXPECT_EQ(sa->samples()[i].window_waiters, sb->samples()[i].window_waiters);
    EXPECT_EQ(sa->samples()[i].barrier_waiters,
              sb->samples()[i].barrier_waiters);
  }
}

void expect_check_clean(const std::vector<models::LayerSpec>& specs,
                        double ratio) {
  verify::BuildOptions options;
  options.plan.encryption_ratio = ratio;
  options.selective = true;
  const auto input = verify::build_input(specs, options);
  const auto report = verify::run_checkers(input, verify::default_checkers());
  EXPECT_EQ(report.error_count(), 0u) << report.to_text();
}

class ParallelDeterminism
    : public ::testing::TestWithParam<std::tuple<const char*, double>> {};

TEST_P(ParallelDeterminism, ParallelRunMatchesSerialBitwise) {
  const auto& [net, ratio] = GetParam();
  const auto specs = specs_for(net);
  const SimRun serial = run_with_jobs(specs, ratio, /*jobs=*/1);
  const SimRun parallel = run_with_jobs(specs, ratio, /*jobs=*/4);
  expect_runs_identical(serial, parallel);
  expect_profile_conserved(serial);
  expect_profile_conserved(parallel);
  // The shared plan/layout every layer task reads is analyzer-clean.
  expect_check_clean(specs, ratio);
}

INSTANTIATE_TEST_SUITE_P(
    NetworksAndRatios, ParallelDeterminism,
    ::testing::Combine(::testing::Values("vgg16", "resnet18", "resnet34"),
                       ::testing::Values(0.5, 1.0)),
    [](const ::testing::TestParamInfo<ParallelDeterminism::ParamType>& info) {
      const std::string ratio =
          std::get<1>(info.param) == 0.5 ? "ratio05" : "ratio10";
      return std::string(std::get<0>(info.param)) + "_" + ratio;
    });

// The full jobs ladder: every worker count produces the same bytes, not just
// the 1-vs-4 pair. Oversubscription (jobs=8 on any host) exercises the
// scheduler's interleavings hardest, which is exactly where an
// order-dependent merge would slip.
TEST(ParallelDeterminismLadder, AllJobsLevelsMatchSerial) {
  const auto specs = specs_for("vgg16");
  const SimRun serial = run_with_jobs(specs, 0.5, /*jobs=*/1);
  expect_profile_conserved(serial);
  for (const int jobs : {2, 4, 8}) {
    const SimRun parallel = run_with_jobs(specs, 0.5, jobs);
    expect_runs_identical(serial, parallel);
    expect_profile_conserved(parallel);
  }
}

// Tile-chunked work units: for a FIXED chunk size the run is bitwise
// jobs-invariant across the whole ladder — stats, registry, profile, samples
// — and the chunk-merged profile still conserves every cycle. (A chunked run
// is a different simulation than an unchunked one — caches restart cold per
// wave — so chunk sizes are only ever compared with themselves.)
class ChunkedDeterminism : public ::testing::TestWithParam<
                               std::tuple<const char*, std::uint64_t>> {};

TEST_P(ChunkedDeterminism, ChunkedRunIsJobsInvariant) {
  const auto& [net, chunk] = GetParam();
  const auto specs = specs_for(net);
  const SimRun serial = run_with_jobs(specs, 0.5, /*jobs=*/1, chunk);
  expect_profile_conserved(serial);
  for (const int jobs : {4, 8}) {
    const SimRun parallel = run_with_jobs(specs, 0.5, jobs, chunk);
    expect_runs_identical(serial, parallel);
    expect_profile_conserved(parallel);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NetworksAndChunks, ChunkedDeterminism,
    ::testing::Combine(::testing::Values("vgg16", "resnet18"),
                       ::testing::Values(std::uint64_t{5}, std::uint64_t{16})),
    [](const ::testing::TestParamInfo<ChunkedDeterminism::ParamType>& info) {
      return std::string(std::get<0>(info.param)) + "_chunk" +
             std::to_string(std::get<1>(info.param));
    });

// chunk_tiles large enough to hold every tile of every layer must degenerate
// to exactly the unchunked runner — same bytes everywhere. This pins the
// "chunking off by default changes nothing" contract from the other side.
TEST(ChunkedDeterminism, OversizedChunkMatchesUnchunked) {
  const auto specs = specs_for("resnet18");
  const SimRun unchunked = run_with_jobs(specs, 0.5, /*jobs=*/2);
  const SimRun one_chunk =
      run_with_jobs(specs, 0.5, /*jobs=*/2, /*chunk_tiles=*/kTiles * 64);
  expect_runs_identical(unchunked, one_chunk);
}

/// Records the hook protocol and, per spec index, a digest of the transfers
/// its probe saw (count, bytes, and an FNV-1a hash over the ordered stream).
class RecordingHook final : public BusProbeHook {
 public:
  struct Digest {
    std::uint64_t transfers = 0;
    std::uint64_t bytes = 0;
    std::uint64_t hash = 1469598103934665603ULL;
    bool operator==(const Digest&) const = default;
  };

  std::unique_ptr<sim::BusProbe> make_probe(std::size_t spec_index) override {
    made.push_back(spec_index);
    return std::make_unique<Probe>();
  }
  void merge_probe(std::unique_ptr<sim::BusProbe> probe,
                   std::size_t spec_index) override {
    merged.push_back(spec_index);
    digests.push_back(static_cast<Probe&>(*probe).digest);
  }

  std::vector<std::size_t> made, merged;
  std::vector<Digest> digests;  ///< in merge order

 private:
  struct Probe final : sim::BusProbe {
    void on_transfer(sim::Addr line_addr, std::uint32_t bytes, bool is_write,
                     bool encrypted) override {
      ++digest.transfers;
      digest.bytes += bytes;
      for (const std::uint64_t word :
           {line_addr, std::uint64_t{bytes}, std::uint64_t{is_write}, std::uint64_t{encrypted}}) {
        digest.hash = (digest.hash ^ word) * 1099511628211ULL;
      }
    }
    Digest digest;
  };
};

// The BusProbeHook contract under longest-first dispatch: units are
// submitted in descending memory-op estimate, yet make_probe and merge_probe
// still arrive in spec order 0..n-1 from the submitting thread, and every
// probe sees exactly the transfers of a serial run.
TEST(ProbeHookOrder, SpecOrderAndSerialResultsAtJobsFour) {
  const auto specs = specs_for("resnet18");
  const auto run = [&](int jobs) {
    sim::GpuConfig config = sim::GpuConfig::gtx480();
    config.scheme = &sim::resolve_scheme("seal-c");
    RunOptions options;
    options.max_tiles_per_layer = kTiles;
    options.jobs = jobs;
    RecordingHook hook;
    options.probe_hook = &hook;
    (void)run_network(specs, config, options);
    return hook;
  };
  // The case is not vacuous: spec order is not already longest-first.
  core::SecureHeap heap;
  const core::ModelLayout layout(specs, nullptr, heap);
  std::vector<std::uint64_t> estimates;
  for (const core::LayerAddressing& layer : layout.layers()) {
    estimates.push_back(make_layer_programs(layer, 480, kTiles).memory_ops_estimate);
  }
  EXPECT_FALSE(std::ranges::is_sorted(estimates, std::ranges::greater{}));

  const RecordingHook serial = run(1);
  const RecordingHook parallel = run(4);
  std::vector<std::size_t> spec_order(specs.size());
  std::iota(spec_order.begin(), spec_order.end(), std::size_t{0});
  EXPECT_EQ(parallel.made, spec_order);
  EXPECT_EQ(parallel.merged, spec_order);
  EXPECT_EQ(serial.merged, spec_order);
  EXPECT_TRUE(parallel.digests == serial.digests);
  for (const RecordingHook::Digest& digest : serial.digests) {
    EXPECT_GT(digest.transfers, 0u);
  }
}

// Regression: runners executing concurrently (each itself parallel) must not
// perturb each other — no hidden global RNG streams, logger buffers, or
// registry state shared between run_network calls.
TEST(ConcurrentRunners, IndependentRunsDoNotInterfere) {
  const auto vgg = models::vgg16_specs(kInput);
  const auto resnet = models::resnet18_specs(kInput);

  const SimRun vgg_alone = run_with_jobs(vgg, 0.5, /*jobs=*/2);
  const SimRun resnet_alone = run_with_jobs(resnet, 1.0, /*jobs=*/2);

  auto vgg_future = std::async(std::launch::async, [&] {
    return run_with_jobs(vgg, 0.5, /*jobs=*/2);
  });
  auto resnet_future = std::async(std::launch::async, [&] {
    return run_with_jobs(resnet, 1.0, /*jobs=*/2);
  });
  const SimRun vgg_concurrent = vgg_future.get();
  const SimRun resnet_concurrent = resnet_future.get();

  expect_runs_identical(vgg_alone, vgg_concurrent);
  expect_runs_identical(resnet_alone, resnet_concurrent);
}

}  // namespace
}  // namespace sealdl::workload
