// Memory controller (+AES pipeline, counter cache) and functional memory.
#include <gtest/gtest.h>

#include "attack/bus_snooper.hpp"
#include "sim/functional_memory.hpp"
#include "sim/mem_controller.hpp"
#include "util/rng.hpp"

namespace sealdl::sim {
namespace {

GpuConfig config_with(const char* scheme) {
  GpuConfig config = GpuConfig::gtx480();
  config.scheme = &resolve_scheme(scheme);
  return config;
}

// -------------------------------------------------------- MemoryController ---

TEST(MemController, BaselineReadIsDramOnly) {
  const GpuConfig config = config_with("baseline");
  MemoryController mc(config, nullptr);
  // 128B at 42.24*0.65 ~= 27.46 B/cycle ~= 4.66 cycles occupancy + 120
  // latency.
  const Cycle done = mc.read_line(0, 0x1000);
  EXPECT_EQ(done, 5u + 120u);
}

TEST(MemController, DirectReadAddsAesLatencyAndOccupancy) {
  const GpuConfig config = config_with("direct");
  MemoryController mc(config, nullptr);
  const Cycle baseline_done = 125;  // from the baseline test above
  const Cycle done = mc.read_line(0, 0x1000);
  // AES: 128B / 11.43 B/cyc ~= 11.2 cycles occupancy + 20 latency, serialized
  // after the DRAM return.
  EXPECT_GT(done, baseline_done + 20);
  SimStats stats;
  mc.accumulate(stats);
  EXPECT_EQ(stats.encrypted_bytes, 128u);
}

TEST(MemController, CounterHitOverlapsAesWithDram) {
  const GpuConfig config = config_with("counter");
  MemoryController mc(config, nullptr);
  // Warm the counter cache with a first access (miss).
  const Cycle first = mc.read_line(0, 0x1000);
  // Second access to the same counter line: pad generation overlaps the data
  // fetch, so the read completes close to DRAM latency + AES pipe, much
  // sooner relative to its issue time than the cold access.
  const Cycle second = mc.read_line(first, 0x1000) - first;
  EXPECT_LT(second, first);
  SimStats stats;
  mc.accumulate(stats);
  EXPECT_EQ(stats.counter_hits, 1u);
  EXPECT_EQ(stats.counter_misses, 1u);
  EXPECT_GT(stats.counter_traffic_bytes, 0u);
}

TEST(MemController, CounterMissCostsExtraDramTraffic) {
  const GpuConfig config = config_with("counter");
  MemoryController mc(config, nullptr);
  // Touch many distinct counter lines: every access misses.
  for (int i = 0; i < 8; ++i) {
    mc.read_line(0, static_cast<Addr>(i) * 128 * 16 * 64);
  }
  SimStats stats;
  mc.accumulate(stats);
  EXPECT_EQ(stats.counter_misses, 8u);
  EXPECT_EQ(stats.counter_traffic_bytes, 8u * 128u);
}

TEST(MemController, SelectiveBypassesUnmarkedLines) {
  SecureMap map;
  map.add_range(0x1000, 128);
  const GpuConfig config = config_with("seal-d");
  MemoryController mc(config, &map);
  EXPECT_TRUE(mc.needs_encryption(0x1000));
  EXPECT_FALSE(mc.needs_encryption(0x2000));
  mc.read_line(0, 0x1000);
  mc.read_line(0, 0x2000);
  SimStats stats;
  mc.accumulate(stats);
  EXPECT_EQ(stats.encrypted_bytes, 128u);
  EXPECT_EQ(stats.bypassed_bytes, 128u);
}

TEST(MemController, FullEncryptionIgnoresMap) {
  SecureMap map;  // empty: nothing marked
  const GpuConfig config = config_with("direct");
  MemoryController mc(config, &map);
  EXPECT_TRUE(mc.needs_encryption(0x9999000));
}

TEST(MemController, WritesConsumeAesBeforeDram) {
  const GpuConfig config = config_with("direct");
  MemoryController mc(config, nullptr);
  const Cycle done = mc.write_line(0, 0x1000);
  GpuConfig plain = config_with("baseline");
  MemoryController mc_plain(plain, nullptr);
  EXPECT_GT(done, mc_plain.write_line(0, 0x1000));
}

TEST(MemController, AesBandwidthThrottlesStreams) {
  // Stream 100 lines through an encrypted controller: completion should be
  // bounded by AES bandwidth (~11.43 B/cycle), not DRAM (~42.24 B/cycle).
  const GpuConfig config = config_with("direct");
  MemoryController mc(config, nullptr);
  Cycle done = 0;
  for (int i = 0; i < 100; ++i) done = mc.read_line(0, static_cast<Addr>(i) * 128);
  const double aes_bound = 100.0 * 128.0 / config.aes_bytes_per_cycle();
  EXPECT_GT(static_cast<double>(done), aes_bound);

  MemoryController mc_plain(config_with("baseline"), nullptr);
  Cycle done_plain = 0;
  for (int i = 0; i < 100; ++i) {
    done_plain = mc_plain.read_line(0, static_cast<Addr>(i) * 128);
  }
  // The encrypted stream is AES-bound (11.43 B/cyc) vs the achievable DRAM
  // rate (27.46 B/cyc): ~2x wall-clock including latencies.
  EXPECT_GT(static_cast<double>(done), 1.8 * static_cast<double>(done_plain));
}

// ------------------------------------------------------- FunctionalMemory ---

crypto::Key128 test_key() {
  crypto::Key128 k{};
  for (std::size_t i = 0; i < 16; ++i) k[i] = static_cast<std::uint8_t>(i + 1);
  return k;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i * 3);
  return v;
}

class FunctionalMemorySchemes : public ::testing::TestWithParam<const char*> {};

TEST_P(FunctionalMemorySchemes, ReadBackEqualsWritten) {
  FunctionalMemory memory(resolve_scheme(GetParam()), nullptr, test_key());
  const auto data = pattern(500);
  memory.write(0x1000, data);
  std::vector<std::uint8_t> out(500);
  memory.read(0x1000, out);
  EXPECT_EQ(out, data);
}

TEST_P(FunctionalMemorySchemes, PartialLineReadModifyWrite) {
  FunctionalMemory memory(resolve_scheme(GetParam()), nullptr, test_key());
  const auto base = pattern(256, 1);
  memory.write(0x1000, base);
  const auto patch = pattern(32, 99);
  memory.write(0x1050, patch);  // straddles inside a line
  std::vector<std::uint8_t> out(256);
  memory.read(0x1000, out);
  for (std::size_t i = 0; i < 256; ++i) {
    const std::uint8_t expected =
        (i >= 0x50 && i < 0x70) ? patch[i - 0x50] : base[i];
    EXPECT_EQ(out[i], expected) << "offset " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, FunctionalMemorySchemes,
                         ::testing::Values("baseline", "direct", "counter"));

TEST(FunctionalMemory, RawLineIsCiphertextWhenSecure) {
  FunctionalMemory memory(resolve_scheme("direct"), nullptr, test_key());
  const auto data = pattern(128);
  memory.write(0x2000, data);
  const auto raw = memory.raw_line(0x2000);
  EXPECT_NE(raw, data);  // DRAM holds ciphertext
  std::vector<std::uint8_t> out(128);
  memory.read(0x2000, out);
  EXPECT_EQ(out, data);
}

TEST(FunctionalMemory, RawLineIsPlaintextWhenInsecure) {
  FunctionalMemory memory(resolve_scheme("baseline"), nullptr, test_key());
  const auto data = pattern(128);
  memory.write(0x2000, data);
  EXPECT_EQ(memory.raw_line(0x2000), data);
}

TEST(FunctionalMemory, SelectiveEncryptsOnlyMarkedLines) {
  SecureMap map;
  map.add_range(0x3000, 128);
  FunctionalMemory memory(resolve_scheme("seal-d"), &map, test_key());
  const auto data = pattern(128);
  memory.write(0x3000, data);
  memory.write(0x3080, data);
  EXPECT_NE(memory.raw_line(0x3000), data);
  EXPECT_EQ(memory.raw_line(0x3080), data);
}

TEST(FunctionalMemory, CounterModeRewriteChangesWireImage) {
  FunctionalMemory memory(resolve_scheme("counter"), nullptr, test_key());
  const auto data = pattern(128);
  memory.write(0x4000, data);
  const auto image1 = memory.raw_line(0x4000);
  memory.write(0x4000, data);  // same plaintext again
  const auto image2 = memory.raw_line(0x4000);
  EXPECT_NE(image1, image2);  // fresh counter => fresh pad
  std::vector<std::uint8_t> out(128);
  memory.read(0x4000, out);
  EXPECT_EQ(out, data);
}

TEST(FunctionalMemory, ProbeSeesWireBytes) {
  FunctionalMemory memory(resolve_scheme("direct"), nullptr, test_key());
  attack::BusSnooper snooper;
  memory.set_probe(&snooper);
  const auto data = pattern(128);
  memory.write(0x5000, data);
  const auto seen = snooper.extract(0x5000, 128);
  EXPECT_EQ(seen, memory.raw_line(0x5000));
  EXPECT_NE(seen, data);
  EXPECT_TRUE(snooper.saw_ciphertext(0x5000, 128));
}

}  // namespace
}  // namespace sealdl::sim

namespace sealdl::sim {
namespace {

TEST(MemController, SplitCountersCoverMoreDataPerCacheLine) {
  // One counter line covers 16 data lines monolithic vs 128 split, so a
  // strided walk that thrashes the monolithic counter cache hits with split
  // counters.
  auto run = [](bool split) {
    GpuConfig config = GpuConfig::gtx480();
    config.scheme = &resolve_scheme("counter");
    config.split_counters = split;
    config.counter_cache_kb = 24;
    MemoryController mc(config, nullptr);
    for (int i = 0; i < 2000; ++i) {
      mc.read_line(0, static_cast<Addr>(i) * 128);
    }
    SimStats stats;
    mc.accumulate(stats);
    return stats;
  };
  const SimStats mono = run(false);
  const SimStats split = run(true);
  EXPECT_GT(split.counter_hit_rate(), mono.counter_hit_rate());
  EXPECT_LT(split.counter_traffic_bytes, mono.counter_traffic_bytes);
}

TEST(GpuConfigExt, CounterGeometry) {
  GpuConfig config = GpuConfig::gtx480();
  EXPECT_EQ(config.counters_per_line(), 16);
  config.split_counters = true;
  EXPECT_EQ(config.counters_per_line(), 128);
}

// ----------------------------------------- counter flush drain accounting ---

TEST(MemController, FlushReturnsDrainCycleAndReconcilesBytes) {
  const GpuConfig config = config_with("counter");
  MemoryController mc(config, nullptr);
  attack::BusSnooper probe;
  mc.set_probe(&probe);

  // Dirty several distinct counter lines: stride past counters_per_line()
  // data lines so every write touches (and dirties) a fresh counter block.
  const Addr stride = static_cast<Addr>(config.line_bytes) *
                      static_cast<Addr>(config.counters_per_line());
  Cycle t = 0;
  for (int i = 0; i < 6; ++i) t = mc.write_line(t, static_cast<Addr>(i) * stride);

  SimStats before;
  mc.accumulate(before);
  const Cycle drained = mc.flush(t);
  // Dirty counters existed, so the writeback drain extends the clock.
  EXPECT_GT(drained, t);

  SimStats after;
  mc.accumulate(after);
  EXPECT_EQ(after.counter_traffic_bytes, before.counter_traffic_bytes + 6u * 128u);
  // Flushed counter lines are counter traffic, not data writes; landing them
  // in dram_write_bytes too would double-count against the probe.
  EXPECT_EQ(after.dram_write_bytes, before.dram_write_bytes);

  // Reconciliation (acceptance criterion): every byte the stats account for
  // crossed the bus exactly once, and nothing crossed unaccounted.
  EXPECT_EQ(after.dram_read_bytes + after.dram_write_bytes +
                after.counter_traffic_bytes,
            probe.bytes_on_bus());

  // A second flush with nothing left dirty neither moves time nor the bus.
  const std::uint64_t bus_before = probe.bytes_on_bus();
  EXPECT_EQ(mc.flush(drained), drained);
  EXPECT_EQ(probe.bytes_on_bus(), bus_before);
}

TEST(MemController, FlushWithoutCounterCacheIsNoOp) {
  MemoryController mc(config_with("direct"), nullptr);
  mc.write_line(0, 0x1000);
  EXPECT_EQ(mc.flush(500), 500u);
}

TEST(MemController, SelectiveCounterDirtyFlushIsPlaintextAndCounted) {
  // SEAL mode (selective counter): only marked lines touch counters; flushed
  // counter lines must show up in counter_traffic_bytes and cross the bus as
  // plaintext writes (counters are not secret — only the pads they seed are).
  const GpuConfig config = config_with("seal-c");
  const Addr stride = static_cast<Addr>(config.line_bytes) *
                      static_cast<Addr>(config.counters_per_line());
  SecureMap map;
  map.add_range(0, 4 * stride);  // secure region: first 4 counter blocks
  MemoryController mc(config, &map);
  attack::BusSnooper probe;
  mc.set_probe(&probe);

  Cycle t = 0;
  // Three secure writes, each dirtying a fresh counter line (miss + fill).
  for (int i = 0; i < 3; ++i) t = mc.write_line(t, static_cast<Addr>(i) * stride);
  // One bypassed write far outside the map: no counter access at all.
  t = mc.write_line(t, Addr{1} << 20);
  EXPECT_EQ(probe.transfers(), 4u + 3u);        // 4 data writes + 3 counter fills
  EXPECT_EQ(probe.encrypted_transfers(), 3u);   // only the secure data writes

  // Mid-run flush: the three dirty counter lines drain as plaintext writes.
  const Cycle drained = mc.flush(t);
  EXPECT_GT(drained, t);
  SimStats mid;
  mc.accumulate(mid);
  EXPECT_EQ(mid.counter_traffic_bytes, 3u * 128u + 3u * 128u);  // fills + flush
  EXPECT_EQ(probe.transfers(), 7u + 3u);
  EXPECT_EQ(probe.encrypted_transfers(), 3u);  // flush added no ciphertext
  EXPECT_EQ(mid.dram_read_bytes + mid.dram_write_bytes + mid.counter_traffic_bytes,
            probe.bytes_on_bus());

  // Flushed lines stay resident (clean): re-dirtying one is a cache hit, and
  // a final clean-exit flush drains exactly that one line.
  t = mc.write_line(drained, 0);
  const Cycle final_drain = mc.flush(t);
  EXPECT_GT(final_drain, t);
  SimStats fin;
  mc.accumulate(fin);
  EXPECT_EQ(fin.counter_hits, 1u);
  EXPECT_EQ(fin.counter_misses, 3u);
  EXPECT_EQ(fin.counter_traffic_bytes, mid.counter_traffic_bytes + 128u);
  EXPECT_EQ(probe.encrypted_transfers(), 4u);
  EXPECT_EQ(fin.dram_read_bytes + fin.dram_write_bytes + fin.counter_traffic_bytes,
            probe.bytes_on_bus());
}

}  // namespace
}  // namespace sealdl::sim
