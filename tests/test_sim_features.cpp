// Newer simulator features: threshold barriers (double buffering), staggered
// warp launch, split counters at system level, engine presets.
#include <gtest/gtest.h>

#include "crypto/engine_spec.hpp"
#include "sim/gpu_simulator.hpp"
#include "sim/scheme_registry.hpp"
#include "workload/trace_common.hpp"

namespace sealdl::sim {
namespace {

class ScriptProgram final : public WarpProgram {
 public:
  explicit ScriptProgram(std::vector<WarpOp> ops) : ops_(std::move(ops)) {}
  std::optional<WarpOp> next() override {
    if (pos_ >= ops_.size()) return std::nullopt;
    return ops_[pos_++];
  }

 private:
  std::vector<WarpOp> ops_;
  std::size_t pos_ = 0;
};

WarpOp compute(std::uint32_t n) { return {WarpOp::Kind::kCompute, 0, n}; }
WarpOp load(Addr a) { return {WarpOp::Kind::kLoad, a, 1}; }
WarpOp wait(std::uint32_t threshold = 0) {
  return {WarpOp::Kind::kWaitLoads, 0, threshold};
}

GpuConfig one_sm() {
  GpuConfig config = GpuConfig::gtx480();
  config.num_sms = 1;
  config.warps_per_sm = 4;
  config.warp_start_stagger = 0;
  return config;
}

TEST(ThresholdBarrier, AllowsPrefetchedLoadsToStayOutstanding) {
  // [load A, load B, wait(<=1), compute] must proceed once ONE load returns;
  // a full barrier would wait for both.
  auto run = [](std::uint32_t threshold) {
    GpuSimulator sim(one_sm());
    std::vector<WarpProgramPtr> programs;
    programs.push_back(std::make_unique<ScriptProgram>(std::vector<WarpOp>{
        load(0x0000), load(0x100000), wait(threshold), compute(1)}));
    sim.load_work(std::move(programs));
    sim.run();
    return sim.stats().cycles;
  };
  // Both variants wait for at least the first response; the full barrier can
  // only be slower or equal.
  EXPECT_LE(run(1), run(0));
}

TEST(ThresholdBarrier, ZeroThresholdIsAFullBarrier) {
  GpuSimulator sim(one_sm());
  std::vector<WarpProgramPtr> programs;
  programs.push_back(std::make_unique<ScriptProgram>(std::vector<WarpOp>{
      load(0x0000), wait(0), compute(1)}));
  sim.load_work(std::move(programs));
  sim.run();
  // Must include a full memory round trip (~175 cycles).
  EXPECT_GT(sim.stats().cycles, 150u);
}

TEST(StaggeredLaunch, ThrottlesEarlyWindowThroughputOnLongKernels) {
  // 16 long-running compute warps, issue width 32: without stagger all 16
  // retire ~16 instr/cycle from the start; with a 500-cycle stagger only the
  // 8 work-conserving launches run early, so the first-1000-cycle throughput
  // drops measurably.
  auto issued_in_first_1000 = [](int stagger) {
    GpuConfig config = one_sm();
    config.warps_per_sm = 16;
    config.warp_start_stagger = stagger;
    config.issue_width = 32;
    GpuSimulator sim(config);
    std::vector<WarpProgramPtr> programs;
    for (int w = 0; w < 16; ++w) {
      programs.push_back(
          std::make_unique<ScriptProgram>(std::vector<WarpOp>{compute(100000)}));
    }
    sim.load_work(std::move(programs));
    sim.run(/*max_cycles=*/1000);
    return sim.stats().warp_instructions;
  };
  const auto base = issued_in_first_1000(0);
  const auto staggered = issued_in_first_1000(500);
  EXPECT_LT(static_cast<double>(staggered), static_cast<double>(base) * 0.8);
}

TEST(StaggeredLaunch, WorkConservingWhenSmIsStarved) {
  // Default issue width: warps park on memory immediately, so the SM is
  // starved and launches the rest without waiting for the stagger.
  GpuConfig config = one_sm();
  config.warp_start_stagger = 100000;  // absurd; must be bypassed
  GpuSimulator sim(config);
  std::vector<WarpProgramPtr> programs;
  for (int w = 0; w < 4; ++w) {
    programs.push_back(std::make_unique<ScriptProgram>(std::vector<WarpOp>{
        load(static_cast<Addr>(w) * 0x10000), wait(), compute(4)}));
  }
  sim.load_work(std::move(programs));
  sim.run();
  EXPECT_LT(sim.stats().cycles, 1000u);  // nowhere near 3x100000
}

TEST(SplitCounters, ImproveCounterModeIpcOnStridedStreams) {
  auto run = [](bool split) {
    GpuConfig config = GpuConfig::gtx480();
    config.num_sms = 4;
    config.scheme = &resolve_scheme("counter");
    config.counter_cache_kb = 24;
    config.split_counters = split;
    GpuSimulator sim(config);
    std::vector<WarpProgramPtr> programs;
    // 1 KiB-strided walk, 16 KiB apart per warp: a warp's 16 loads span one
    // split-counter line (16 KiB coverage) but eight monolithic lines, and
    // the per-warp counter lines spread across cache sets.
    for (int w = 0; w < 64; ++w) {
      std::vector<WarpOp> ops;
      for (int i = 0; i < 16; ++i) {
        ops.push_back(load(static_cast<Addr>(w) * 16384 + static_cast<Addr>(i) * 1024));
        ops.push_back(wait());
        ops.push_back(compute(2));
      }
      programs.push_back(std::make_unique<ScriptProgram>(std::move(ops)));
    }
    sim.load_work(std::move(programs));
    sim.run();
    return sim.stats();
  };
  const SimStats mono = run(false);
  const SimStats split = run(true);
  EXPECT_GT(split.counter_hit_rate(), mono.counter_hit_rate());
  EXPECT_LE(split.counter_traffic_bytes, mono.counter_traffic_bytes);
}

TEST(EngineSpecs, TableOneMatchesThePaper) {
  const auto engines = crypto::table1_engines();
  ASSERT_EQ(engines.size(), 5u);
  EXPECT_EQ(engines[1].name.find("Mathew"), 0u);
  EXPECT_DOUBLE_EQ(engines[1].throughput_gbps, 6.6);
  EXPECT_EQ(engines[4].latency_cycles, 152);
  const auto def = crypto::default_engine();
  EXPECT_EQ(def.latency_cycles, 20);
  EXPECT_DOUBLE_EQ(def.throughput_gbps, 8.0);
  // 8 GB/s at 700 MHz = 11.43 B/cycle.
  EXPECT_NEAR(def.bytes_per_cycle(700.0), 11.43, 0.01);
}

TEST(GpuConfigNames, SchemeNamesAreStable) {
  EXPECT_STREQ(scheme_name(EncryptionScheme::kNone), "Baseline");
  EXPECT_STREQ(scheme_name(EncryptionScheme::kDirect), "Direct");
  EXPECT_STREQ(scheme_name(EncryptionScheme::kCounter), "Counter");
}

TEST(TraceCommon, MacsToInstructionsRoundsUpWithOverhead) {
  EXPECT_EQ(workload::macs_to_instructions(32, 0.0), 1u);
  EXPECT_EQ(workload::macs_to_instructions(33, 0.0), 2u);
  EXPECT_EQ(workload::macs_to_instructions(0), 1u);  // never zero
  EXPECT_EQ(workload::macs_to_instructions(3200, 0.12), 112u);
}

TEST(GpuConfigDerived, BandwidthConversions) {
  const GpuConfig config = GpuConfig::gtx480();
  // 177.4 GB/s * 0.65 / 700 MHz / 6 channels.
  EXPECT_NEAR(config.dram_bytes_per_cycle_per_channel(), 27.46, 0.05);
  EXPECT_NEAR(config.aes_bytes_per_cycle(), 11.43, 0.01);
  EXPECT_DOUBLE_EQ(config.peak_ipc(), 960.0);
}

}  // namespace
}  // namespace sealdl::sim
