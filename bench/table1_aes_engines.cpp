// Paper Table I: published hardware AES engine implementations, plus the
// bandwidth each one sustains in our memory-controller model and the impact
// on a fully encrypted streaming read workload.
//
//   ./table1_aes_engines [--lines 4000]
#include <cstdio>

#include "bench/bench_common.hpp"
#include "crypto/engine_spec.hpp"
#include "sim/mem_controller.hpp"

namespace sealdl {
namespace {

int main_impl(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const int lines = static_cast<int>(flags.get_int("lines", 4000));
  flags.reject_unknown();

  bench::banner("Table I — AES encryption engine implementations (counter mode)",
                "published area/power/latency/throughput; the modeled SEAL "
                "engine is the Mathew-style pipeline (20-cycle line latency, "
                "8 GB/s) — §II-B / §IV-A");

  util::Table table({"engine", "area mm^2", "power mW", "latency cyc",
                     "claimed GB/s", "measured GB/s", "stream slowdown"});

  for (const crypto::EngineSpec& engine : crypto::table1_engines()) {
    sim::GpuConfig config = sim::GpuConfig::gtx480();
    config.scheme = &sim::resolve_scheme("direct");
    config.engine = engine;

    // Stream `lines` encrypted reads through one controller and measure the
    // sustained post-AES bandwidth.
    sim::MemoryController mc(config, nullptr);
    sim::Cycle done = 0;
    for (int i = 0; i < lines; ++i) {
      done = mc.read_line(0, static_cast<sim::Addr>(i) * 128);
    }
    const double bytes = static_cast<double>(lines) * 128.0;
    const double measured_gbps =
        bytes / static_cast<double>(done) * config.core_mhz * 1e6 / 1e9;

    // Same stream without encryption, for the slowdown column.
    sim::GpuConfig plain = config;
    plain.scheme = sim::baseline_scheme();
    sim::MemoryController mc_plain(plain, nullptr);
    sim::Cycle done_plain = 0;
    for (int i = 0; i < lines; ++i) {
      done_plain = mc_plain.read_line(0, static_cast<sim::Addr>(i) * 128);
    }

    table.add_row({engine.name,
                   engine.area_mm2 < 0 ? "N/A" : util::Table::fmt(engine.area_mm2, 1),
                   engine.power_mw < 0 ? "N/A" : util::Table::fmt(engine.power_mw, 0),
                   std::to_string(engine.latency_cycles),
                   util::Table::fmt(engine.throughput_gbps, 1),
                   util::Table::fmt(measured_gbps, 2),
                   util::Table::fmt(static_cast<double>(done) / static_cast<double>(done_plain), 2) + "x"});
  }
  table.print();

  const auto engine = crypto::default_engine();
  std::printf(
      "\nSEAL default engine: %s; per-channel DRAM %.1f GB/s achievable vs "
      "%.1f GB/s AES => the §II-B bandwidth gap.\n",
      engine.name.c_str(),
      sim::GpuConfig::gtx480().dram_bytes_per_cycle_per_channel() * 700e6 / 1e9,
      engine.throughput_gbps);

  return 0;
}

}  // namespace
}  // namespace sealdl

int main(int argc, char** argv) {
  return sealdl::bench::run_main(sealdl::main_impl, argc, argv);
}
