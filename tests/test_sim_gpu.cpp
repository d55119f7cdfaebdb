// Whole-GPU behaviour with hand-built warp programs: issue limits, latency
// hiding, bandwidth saturation, L2 reuse, MSHR merging, encryption slowdown.
#include <gtest/gtest.h>

#include <vector>

#include "attack/bus_snooper.hpp"
#include "sim/gpu_simulator.hpp"
#include "sim/scheme_registry.hpp"

namespace sealdl::sim {
namespace {

/// Replays a fixed op vector (test fixture program).
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
WarpOp store(Addr a) { return {WarpOp::Kind::kStore, a, 1}; }
WarpOp wait() { return {WarpOp::Kind::kWaitLoads, 0, 0}; }  // full barrier

GpuConfig small_config() {
  GpuConfig config = GpuConfig::gtx480();
  config.num_sms = 2;
  config.warps_per_sm = 4;
  return config;
}

TEST(GpuSimulator, ComputeOnlyReachesPeakIpc) {
  GpuConfig config = small_config();
  GpuSimulator sim(config);
  std::vector<WarpProgramPtr> programs;
  for (int w = 0; w < config.num_sms * config.warps_per_sm; ++w) {
    programs.push_back(std::make_unique<ScriptProgram>(
        std::vector<WarpOp>{compute(1000)}));
  }
  sim.load_work(std::move(programs));
  sim.run();
  const SimStats stats = sim.stats();
  // 8 warps x 1000 instrs on 2 SMs at 2/cycle => ~2000 cycles, IPC ~ peak.
  EXPECT_EQ(stats.warp_instructions, 8000u);
  EXPECT_NEAR(stats.ipc(), config.peak_ipc(), config.peak_ipc() * 0.01);
}

TEST(GpuSimulator, SingleWarpIssuesOnePerCycle) {
  GpuConfig config = small_config();
  GpuSimulator sim(config);
  std::vector<WarpProgramPtr> programs;
  programs.push_back(std::make_unique<ScriptProgram>(std::vector<WarpOp>{compute(500)}));
  sim.load_work(std::move(programs));
  sim.run();
  // One warp can only retire 1 instruction per cycle.
  EXPECT_NEAR(static_cast<double>(sim.stats().cycles), 500.0, 5.0);
}

TEST(GpuSimulator, LoadLatencyObservedBySingleWarp) {
  GpuConfig config = small_config();
  GpuSimulator sim(config);
  std::vector<WarpProgramPtr> programs;
  programs.push_back(std::make_unique<ScriptProgram>(
      std::vector<WarpOp>{load(0x1000), wait(), compute(1)}));
  sim.load_work(std::move(programs));
  sim.run();
  // Round trip: icnt 20 + L2 10 + DRAM ~124 + icnt 20 ~= 174 cycles.
  const double expected = 20 + 10 + 124 + 20;
  EXPECT_NEAR(static_cast<double>(sim.stats().cycles), expected, 10.0);
}

TEST(GpuSimulator, L2HitIsMuchFasterThanMiss) {
  GpuConfig config = small_config();
  GpuSimulator sim(config);
  std::vector<WarpProgramPtr> programs;
  programs.push_back(std::make_unique<ScriptProgram>(std::vector<WarpOp>{
      load(0x1000), wait(), load(0x1000), wait()}));
  sim.load_work(std::move(programs));
  sim.run();
  const SimStats stats = sim.stats();
  EXPECT_EQ(stats.l2_hits, 1u);
  EXPECT_EQ(stats.l2_misses, 1u);
  // Much less than two full DRAM round trips.
  EXPECT_LT(stats.cycles, 280u);
}

TEST(GpuSimulator, MshrMergesSameLineLoads) {
  GpuConfig config = small_config();
  GpuSimulator sim(config);
  std::vector<WarpProgramPtr> programs;
  for (int w = 0; w < 4; ++w) {
    programs.push_back(std::make_unique<ScriptProgram>(
        std::vector<WarpOp>{load(0x1000), wait()}));
  }
  sim.load_work(std::move(programs));
  sim.run();
  const SimStats stats = sim.stats();
  // All four loads coalesce onto one DRAM fill (2 SMs -> the slice sees two
  // requests for the same line; the second merges, and only one fill reads
  // DRAM).
  EXPECT_EQ(stats.dram_read_bytes, 128u);
}

TEST(GpuSimulator, ManyWarpsHideLatency) {
  // Bandwidth-light pointer-chase-free loads: with enough warps the SM never
  // starves, so total cycles grow sublinearly vs a single warp's serial time.
  GpuConfig config = small_config();
  const int loads_per_warp = 16;
  auto make = [&](int warps) {
    GpuSimulator sim(config);
    std::vector<WarpProgramPtr> programs;
    for (int w = 0; w < warps; ++w) {
      std::vector<WarpOp> ops;
      for (int i = 0; i < loads_per_warp; ++i) {
        ops.push_back(load(static_cast<Addr>((w * loads_per_warp + i)) * 128));
        ops.push_back(wait());
        ops.push_back(compute(4));
      }
      programs.push_back(std::make_unique<ScriptProgram>(std::move(ops)));
    }
    sim.load_work(std::move(programs));
    sim.run();
    return sim.stats();
  };
  const SimStats one = make(1);
  const SimStats eight = make(8);
  // 8x the work in far less than 4x the time.
  EXPECT_LT(eight.cycles, one.cycles * 4);
}

TEST(GpuSimulator, StoresProduceWritebackTraffic) {
  GpuConfig config = small_config();
  // More distinct store lines than L2 capacity forces writebacks; plus the
  // final flush drains the rest.
  const int lines = (config.l2_slice_kb * 1024 / config.line_bytes) *
                        config.num_channels + 512;
  GpuSimulator sim(config);
  std::vector<WarpProgramPtr> programs;
  std::vector<WarpOp> ops;
  for (int i = 0; i < lines; ++i) ops.push_back(store(static_cast<Addr>(i) * 128));
  programs.push_back(std::make_unique<ScriptProgram>(std::move(ops)));
  sim.load_work(std::move(programs));
  sim.run();
  const SimStats stats = sim.stats();
  EXPECT_EQ(stats.dram_write_bytes, static_cast<std::uint64_t>(lines) * 128u);
  EXPECT_EQ(stats.dram_read_bytes, 0u);  // full-line stores never fill
}

TEST(GpuSimulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    GpuConfig config = small_config();
    GpuSimulator sim(config);
    std::vector<WarpProgramPtr> programs;
    for (int w = 0; w < 8; ++w) {
      std::vector<WarpOp> ops;
      for (int i = 0; i < 50; ++i) {
        ops.push_back(load(static_cast<Addr>(w * 1000 + i * 128)));
        ops.push_back(wait());
        ops.push_back(compute(3));
        ops.push_back(store(static_cast<Addr>(0x100000 + w * 1000 + i * 128)));
      }
      programs.push_back(std::make_unique<ScriptProgram>(std::move(ops)));
    }
    sim.load_work(std::move(programs));
    sim.run();
    return sim.stats();
  };
  const SimStats a = run_once();
  const SimStats b = run_once();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.thread_instructions, b.thread_instructions);
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
}

TEST(GpuSimulator, FullEncryptionSlowsBandwidthBoundWork) {
  auto run_scheme = [](const char* scheme) {
    GpuConfig config = GpuConfig::gtx480();
    config.scheme = &resolve_scheme(scheme);
    GpuSimulator sim(config);
    std::vector<WarpProgramPtr> programs;
    // Streaming loads, no reuse: purely bandwidth-bound.
    const int warps = config.num_sms * config.warps_per_sm;
    for (int w = 0; w < warps; ++w) {
      std::vector<WarpOp> ops;
      for (int i = 0; i < 40; ++i) {
        ops.push_back(load(static_cast<Addr>((w * 40 + i)) * 128));
        ops.push_back(wait());
        ops.push_back(compute(2));
      }
      programs.push_back(std::make_unique<ScriptProgram>(std::move(ops)));
    }
    sim.load_work(std::move(programs));
    sim.run();
    return sim.stats();
  };
  const SimStats plain = run_scheme("baseline");
  const SimStats direct = run_scheme("direct");
  const SimStats counter = run_scheme("counter");
  EXPECT_GT(direct.cycles, plain.cycles * 2);  // ~3.7x bandwidth gap
  EXPECT_GT(counter.cycles, plain.cycles * 2);
  EXPECT_GT(direct.ipc(), 0.0);
  EXPECT_LT(direct.ipc(), plain.ipc());
}

TEST(GpuSimulator, SelectiveEncryptionLandsBetween) {
  SecureMap map;
  const int total_lines = 480 * 40;
  // Mark half of the stream secure (even lines).
  for (int i = 0; i < total_lines; i += 2) map.add_range(static_cast<Addr>(i) * 128, 128);

  auto run_selective = [&](const char* scheme) {
    GpuConfig config = GpuConfig::gtx480();
    config.scheme = &resolve_scheme(scheme);
    GpuSimulator sim(config, &map);
    std::vector<WarpProgramPtr> programs;
    const int warps = config.num_sms * config.warps_per_sm;
    for (int w = 0; w < warps; ++w) {
      std::vector<WarpOp> ops;
      for (int i = 0; i < 40; ++i) {
        ops.push_back(load(static_cast<Addr>((w * 40 + i)) * 128));
        ops.push_back(wait());
        ops.push_back(compute(2));
      }
      programs.push_back(std::make_unique<ScriptProgram>(std::move(ops)));
    }
    sim.load_work(std::move(programs));
    sim.run();
    return sim.stats();
  };
  const SimStats plain = run_selective("baseline");
  const SimStats full = run_selective("direct");
  const SimStats seal = run_selective("seal-d");
  EXPECT_LT(seal.cycles, full.cycles);
  EXPECT_GT(seal.cycles, plain.cycles);
  // Half the bytes bypassed.
  EXPECT_NEAR(static_cast<double>(seal.encrypted_bytes),
              static_cast<double>(seal.bypassed_bytes),
              static_cast<double>(seal.encrypted_bytes) * 0.05);
}

TEST(GpuSimulator, CounterFlushDrainExtendsFinalCycle) {
  // Store-only counter-mode run on one channel: stores are posted, so the
  // warp finishes issuing long before the DRAM pipe drains. The end-of-run
  // counter flush is the last traffic booked; its drain-complete cycle must
  // become the final cycle, so the run cannot report fewer cycles than the
  // single channel needs to move every byte it carried.
  GpuConfig config = GpuConfig::gtx480();
  config.num_sms = 1;
  config.warps_per_sm = 1;
  config.num_channels = 1;
  config.scheme = &resolve_scheme("counter");

  GpuSimulator sim(config);
  attack::BusSnooper probe;
  sim.set_probe(&probe);
  std::vector<WarpOp> ops;
  const Addr stride = static_cast<Addr>(config.line_bytes) *
                      static_cast<Addr>(config.counters_per_line());
  // 512 lines fit both the L2 slice (128 KB) and the counter cache (96 KB),
  // so every counter line is still dirty when the run ends.
  for (int i = 0; i < 512; ++i) ops.push_back(store(static_cast<Addr>(i) * stride));
  std::vector<WarpProgramPtr> programs;
  programs.push_back(std::make_unique<ScriptProgram>(std::move(ops)));
  sim.load_work(std::move(programs));
  sim.run();

  const SimStats stats = sim.stats();
  // 512 data writebacks + 512 counter fills + 512 flushed counter lines.
  const std::uint64_t total_bytes =
      stats.dram_read_bytes + stats.dram_write_bytes + stats.counter_traffic_bytes;
  EXPECT_EQ(total_bytes, 3u * 512u * 128u);
  EXPECT_GE(static_cast<double>(stats.cycles),
            static_cast<double>(total_bytes) /
                config.dram_bytes_per_cycle_per_channel());

  // Whole-simulator byte reconciliation, flush traffic included: the probe
  // saw exactly the bytes the three stat counters account for.
  EXPECT_EQ(total_bytes, probe.bytes_on_bus());
}

}  // namespace
}  // namespace sealdl::sim
