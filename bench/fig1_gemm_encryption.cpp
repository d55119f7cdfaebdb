// Paper Figure 1: IPC of matrix multiplication under straightforward memory
// encryption (a), and counter-cache hit rate vs capacity (b).
//
//   ./fig1_gemm_encryption [--dim 1024] [--tiles 960] [--sweep]
//
// --sweep extends Fig 1b with a finer counter-cache size sweep and the
// split-counter discussion point (per-line counter footprint).
#include <cstdio>

#include "bench/bench_common.hpp"
#include "sim/gpu_simulator.hpp"
#include "workload/gemm_trace.hpp"

namespace sealdl {
namespace {

sim::SimStats run_gemm(const sim::GpuConfig& config, int dim,
                       std::uint64_t max_tiles) {
  workload::GemmSpec spec;
  spec.m = spec.n = spec.k = dim;
  spec.a_base = 0x1000'0000;
  spec.b_base = 0x2000'0000;
  spec.c_base = 0x3000'0000;
  auto programs = workload::make_gemm_programs(
      spec, config.num_sms * config.warps_per_sm, max_tiles);
  sim::GpuSimulator simulator(config);
  simulator.load_work(std::move(programs));
  simulator.run();
  return simulator.stats();
}

int main_impl(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const int dim = static_cast<int>(flags.get_int("dim", 1024));
  const auto tiles = flags.get_uint("tiles", 960);
  const bool sweep = flags.get_bool("sweep", false);
  flags.reject_unknown();

  bench::banner("Figure 1 — GEMM under straightforward memory encryption",
                "encryption decreases GPU IPC by 45-54% on matrix "
                "multiplication; counter-cache hit rate grows with capacity "
                "(24KB..1536KB) yet Counter does not beat Direct (§II-B)");

  util::Table fig1a({"config", "IPC", "IPC/baseline", "L2 hit", "ctr hit"});
  double baseline_ipc = 0.0;

  auto add_row = [&](const std::string& name, const sim::GpuConfig& config) {
    const sim::SimStats stats = run_gemm(config, dim, tiles);
    if (baseline_ipc == 0.0) baseline_ipc = stats.ipc();
    fig1a.add_row({name, util::Table::fmt(stats.ipc(), 1),
                   util::Table::fmt(stats.ipc() / baseline_ipc, 3),
                   util::Table::pct(stats.l2_hit_rate()),
                   config.scheme->family == sim::EncryptionScheme::kCounter
                       ? util::Table::pct(stats.counter_hit_rate())
                       : "-"});
    return stats;
  };

  sim::GpuConfig config = sim::GpuConfig::gtx480();
  add_row("Baseline", config);
  config.scheme = &sim::resolve_scheme("direct");
  add_row("Direct", config);

  util::Table fig1b({"counter cache", "IPC", "hit rate", "counter traffic MB"});
  const std::vector<int> sizes =
      sweep ? std::vector<int>{24, 48, 96, 192, 384, 768, 1536, 3072}
            : std::vector<int>{24, 96, 384, 1536};
  config.scheme = &sim::resolve_scheme("counter");
  for (int kb : sizes) {
    config.counter_cache_kb = kb;
    const sim::SimStats stats = run_gemm(config, dim, tiles);
    fig1a.add_row({"Ctr-" + std::to_string(kb), util::Table::fmt(stats.ipc(), 1),
                   util::Table::fmt(stats.ipc() / baseline_ipc, 3),
                   util::Table::pct(stats.l2_hit_rate()),
                   util::Table::pct(stats.counter_hit_rate())});
    fig1b.add_row({std::to_string(kb) + " KB", util::Table::fmt(stats.ipc(), 1),
                   util::Table::pct(stats.counter_hit_rate()),
                   util::Table::fmt(static_cast<double>(stats.counter_traffic_bytes) / 1e6, 2)});
  }

  if (sweep) {
    // Split counters (Yan et al.): 8x counter coverage per cache line.
    for (int kb : {24, 96}) {
      config.counter_cache_kb = kb;
      config.split_counters = true;
      const sim::SimStats stats = run_gemm(config, dim, tiles);
      fig1b.add_row({std::to_string(kb) + " KB (split)",
                     util::Table::fmt(stats.ipc(), 1),
                     util::Table::pct(stats.counter_hit_rate()),
                     util::Table::fmt(static_cast<double>(stats.counter_traffic_bytes) / 1e6, 2)});
    }
    config.split_counters = false;
  }

  std::printf("Fig 1a — IPC (GEMM %dx%dx%d, %llu output tiles simulated)\n", dim,
              dim, dim, static_cast<unsigned long long>(tiles));
  fig1a.print();
  std::printf("\nFig 1b — counter-cache hit rate vs capacity\n");
  fig1b.print();

  return 0;
}

}  // namespace
}  // namespace sealdl

int main(int argc, char** argv) {
  return sealdl::bench::run_main(sealdl::main_impl, argc, argv);
}
