// Cycle-attribution profiler goldens: the exact-partition invariant on all
// five encryption schemes, byte-identical profile JSON across job counts,
// zero perturbation of simulation results, deterministic sampler decimation
// under a cap, and a wall-time guard on the instrumented-but-disabled path.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "models/layer_spec.hpp"
#include "sim/scheme_registry.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/profile_checkers.hpp"
#include "workload/network_runner.hpp"

namespace sealdl::workload {
namespace {

constexpr int kInput = 32;
constexpr std::uint64_t kTiles = 24;

/// The paper's five schemes, by registry CLI name.
constexpr const char* kSchemes[] = {"baseline", "direct", "counter", "seal-d",
                                    "seal-c"};

struct ProfiledRun {
  NetworkResult result;
  telemetry::RunTelemetry telemetry;

  explicit ProfiledRun(telemetry::TelemetryOptions topts) : telemetry(topts) {}
};

ProfiledRun run_profiled(const std::vector<models::LayerSpec>& specs,
                         const char* scheme, int jobs,
                         sim::Cycle sample_interval = 0,
                         std::size_t max_samples = 0) {
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &sim::resolve_scheme(scheme);
  RunOptions options;
  options.max_tiles_per_layer = kTiles;
  options.plan.encryption_ratio = 0.5;
  options.jobs = jobs;
  telemetry::TelemetryOptions topts;
  topts.sample_interval = sample_interval;
  topts.max_samples = max_samples;
  topts.profile = true;
  ProfiledRun run(topts);
  options.telemetry = &run.telemetry;
  run.result = run_network(specs, config, options);
  return run;
}

// Every cycle of every component lands in exactly one bucket, and all
// components of a layer agree on the layer's total — on all five schemes.
TEST(CycleConservation, HoldsOnAllSchemes) {
  const auto specs = models::resnet18_specs(kInput);
  for (const char* scheme : kSchemes) {
    SCOPED_TRACE(scheme);
    const ProfiledRun run = run_profiled(specs, scheme, /*jobs=*/1);
    const telemetry::CycleProfile& profile = run.telemetry.profile();
    ASSERT_EQ(profile.layers.size(), specs.size());
    for (const telemetry::LayerCycleProfile& layer : profile.layers) {
      EXPECT_GT(layer.total_cycles, 0u) << layer.layer;
      ASSERT_FALSE(layer.components.empty());
      for (const telemetry::ComponentProfile& comp : layer.components) {
        EXPECT_EQ(comp.bucket_sum(), comp.total_cycles)
            << layer.layer << " " << comp.name;
        EXPECT_EQ(comp.total_cycles, layer.total_cycles)
            << layer.layer << " " << comp.name;
      }
    }
    const verify::Report report = verify::run_profile_check(profile);
    EXPECT_EQ(report.error_count(), 0u) << report.to_text();
  }
}

// The profile.* rules must actually catch a corrupted profile, not just
// bless intact ones.
TEST(CycleConservation, CheckerCatchesCorruption) {
  const auto specs = models::resnet18_specs(kInput);
  ProfiledRun run = run_profiled(specs, kSchemes[4], /*jobs=*/1);
  telemetry::CycleProfile& profile = run.telemetry.profile();
  ASSERT_FALSE(profile.empty());
  profile.layers.front().components.front().buckets[0] += 1;
  verify::Report report = verify::run_profile_check(profile);
  EXPECT_TRUE(report.fired("profile.conservation")) << report.to_text();

  profile.layers.front().components.front().total_cycles += 1;
  report = verify::run_profile_check(profile);
  EXPECT_TRUE(report.fired("profile.total")) << report.to_text();
}

// The serialized profile is the byte-exact golden across job counts: the
// parallel runner merges per-task profiles in spec order.
TEST(ProfileDeterminism, JsonByteIdenticalAcrossJobs) {
  for (const char* net : {"vgg16", "resnet18"}) {
    SCOPED_TRACE(net);
    const auto specs = std::string(net) == "vgg16"
                           ? models::vgg16_specs(kInput)
                           : models::resnet18_specs(kInput);
    const ProfiledRun serial = run_profiled(specs, kSchemes[4], /*jobs=*/1);
    const ProfiledRun parallel = run_profiled(specs, kSchemes[4], /*jobs=*/4);
    EXPECT_EQ(telemetry::cycle_profile_json(serial.telemetry.profile()),
              telemetry::cycle_profile_json(parallel.telemetry.profile()));
  }
}

// Attaching the profiler must not perturb the simulation: stats with
// profiling on equal stats with profiling off, cycle for cycle.
TEST(ProfileDeterminism, ProfilingDoesNotPerturbResults) {
  const auto specs = models::resnet18_specs(kInput);
  const ProfiledRun profiled = run_profiled(specs, kSchemes[2], /*jobs=*/1);

  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &sim::resolve_scheme(kSchemes[2]);
  RunOptions options;
  options.max_tiles_per_layer = kTiles;
  options.plan.encryption_ratio = 0.5;
  const NetworkResult plain = run_network(specs, config, options);

  ASSERT_EQ(profiled.result.layers.size(), plain.layers.size());
  for (std::size_t i = 0; i < plain.layers.size(); ++i) {
    EXPECT_EQ(profiled.result.layers[i].stats.cycles,
              plain.layers[i].stats.cycles);
    EXPECT_EQ(profiled.result.layers[i].stats.warp_instructions,
              plain.layers[i].stats.warp_instructions);
    EXPECT_EQ(profiled.result.layers[i].stats.dram_read_bytes,
              plain.layers[i].stats.dram_read_bytes);
  }
}

// A capped sampler must decimate identically whether samples arrive from the
// serial or the parallel runner (decimation happens only at the shared sink).
TEST(SamplerDecimation, DeterministicAcrossJobs) {
  const auto specs = models::vgg16_specs(kInput);
  constexpr sim::Cycle kInterval = 500;
  constexpr std::size_t kCap = 16;
  const ProfiledRun serial =
      run_profiled(specs, kSchemes[3], /*jobs=*/1, kInterval, kCap);
  const ProfiledRun parallel =
      run_profiled(specs, kSchemes[3], /*jobs=*/4, kInterval, kCap);
  const auto* sa = serial.telemetry.sampler();
  const auto* sb = parallel.telemetry.sampler();
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  EXPECT_LE(sa->samples().size(), kCap);
  EXPECT_GT(sa->stride(), 1u);  // the cap actually engaged on this run
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

// Guard: the instrumented-but-disabled path (profiler pointer null, one
// branch per run-loop iteration) adds at most 2% wall time over a run with
// no telemetry attached at all. Interleaved min-of-N absorbs scheduler
// noise; the whole comparison retries to keep CI deterministic.
TEST(DisabledPathOverhead, AtMostTwoPercent) {
  const auto specs = models::vgg16_specs(kInput);
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &sim::resolve_scheme("counter");
  RunOptions base;
  base.max_tiles_per_layer = kTiles;
  base.plan.encryption_ratio = 0.5;

  const auto time_run = [&](telemetry::RunTelemetry* telemetry) {
    RunOptions options = base;
    options.telemetry = telemetry;
    const auto begin = std::chrono::steady_clock::now();
    const NetworkResult result = run_network(specs, config, options);
    const auto end = std::chrono::steady_clock::now();
    EXPECT_GT(result.total_cycles(), 0.0);
    return std::chrono::duration<double>(end - begin).count();
  };

  for (int attempt = 0; attempt < 3; ++attempt) {
    double plain = 1e300;
    double disabled = 1e300;
    for (int i = 0; i < 3; ++i) {
      plain = std::min(plain, time_run(nullptr));
      // Telemetry attached, profiling off: the run loop sees the same null
      // profiler pointer plus per-layer record collection.
      telemetry::RunTelemetry telemetry{telemetry::TelemetryOptions{}};
      disabled = std::min(disabled, time_run(&telemetry));
    }
    if (disabled <= plain * 1.02) return;
  }
  ADD_FAILURE() << "instrumented-but-disabled path exceeds 2% overhead";
}

}  // namespace
}  // namespace sealdl::workload
