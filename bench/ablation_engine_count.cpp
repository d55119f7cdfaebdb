// Ablation: can more AES silicon close the bandwidth gap instead of SEAL?
//
//   ./ablation_engine_count [--tiles 480] [--input 224] [--jobs N]
//
// The paper argues (§II-B, Table I) that adding engines is ruinously costly
// in die area/power; this sweep quantifies what each extra engine per memory
// controller buys on a fully encrypted VGG-16, with the area/power bill.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "models/layer_spec.hpp"

namespace sealdl {
namespace {

int main_impl(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const auto tiles = flags.get_uint("tiles", 480);
  const int input = static_cast<int>(flags.get_int("input", 224));
  const int jobs = bench::jobs_from_flags(flags);
  flags.reject_unknown();

  bench::banner("Ablation — AES engines per memory controller (Direct, VGG-16)",
                "one engine per controller is the paper's cost-constrained "
                "design point; SEAL at 1 engine should rival several engines "
                "of full encryption");

  const auto specs = models::vgg16_specs(input);
  workload::RunOptions options;
  options.max_tiles_per_layer = tiles;
  options.jobs = jobs;

  const double baseline =
      workload::run_network(specs, sim::GpuConfig::gtx480(), options).overall_ipc();

  util::Table table(
      {"engines/MC", "total area mm^2", "total power W", "IPC", "IPC/baseline"});
  const auto engine = crypto::default_engine();
  for (int engines = 1; engines <= 6; ++engines) {
    sim::GpuConfig config = sim::GpuConfig::gtx480();
    config.scheme = &sim::resolve_scheme("direct");
    config.engines_per_controller = engines;
    const auto result = workload::run_network(specs, config, options);
    table.add_row({std::to_string(engines),
                   util::Table::fmt(engine.area_mm2 * engines * config.num_channels, 1),
                   util::Table::fmt(engine.power_mw * engines * config.num_channels / 1000.0, 2),
                   util::Table::fmt(result.overall_ipc(), 1),
                   util::Table::fmt(result.overall_ipc() / baseline, 2)});
  }

  // SEAL reference row at the 1-engine budget.
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &sim::resolve_scheme("seal-d");
  workload::RunOptions seal = options;
  seal.plan = bench::default_plan();
  const auto result = workload::run_network(specs, config, seal);
  table.add_row({"SEAL-D (1)", util::Table::fmt(engine.area_mm2 * config.num_channels, 1),
                 util::Table::fmt(engine.power_mw * config.num_channels / 1000.0, 2),
                 util::Table::fmt(result.overall_ipc(), 1),
                 util::Table::fmt(result.overall_ipc() / baseline, 2)});
  table.print();

  return 0;
}

}  // namespace
}  // namespace sealdl

int main(int argc, char** argv) {
  return sealdl::bench::run_main(sealdl::main_impl, argc, argv);
}
