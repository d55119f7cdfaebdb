// Ablation: whole-network performance vs SEAL encryption ratio.
//
//   ./ablation_ratio_sweep [--tiles 480] [--input 224] [--model vgg16] [--jobs N]
//
// Shows where SEAL's win comes from: ratio 1.0 degenerates to full
// encryption, ratio 0 to (insecure) baseline-like bandwidth; the paper picks
// 0.5 from the Fig 3/4 security analysis.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "models/layer_spec.hpp"

namespace sealdl {
namespace {

int main_impl(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const auto tiles = static_cast<std::uint64_t>(flags.get_int("tiles", 480));
  const int input = static_cast<int>(flags.get_int("input", 224));
  const std::string model = flags.get("model", "vgg16");

  bench::banner("Ablation — encryption-ratio sweep (SEAL-D on " + model + ")",
                "performance interpolates between Baseline (ratio 0) and "
                "Direct full encryption (ratio 1); 0.5 is the security-chosen "
                "operating point");

  const auto specs = model == "vgg16"      ? models::vgg16_specs(input)
                     : model == "resnet18" ? models::resnet18_specs(input)
                                           : models::resnet34_specs(input);

  // Baseline and full-encryption anchors.
  workload::RunOptions options;
  options.max_tiles_per_layer = tiles;
  options.jobs = bench::jobs_from_flags(flags);
  sim::GpuConfig base_config = sim::GpuConfig::gtx480();
  const double baseline =
      workload::run_network(specs, base_config, options).overall_ipc();

  util::Table table({"ratio", "IPC", "IPC/baseline", "encrypted traffic"});
  for (double ratio : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    sim::GpuConfig config = sim::GpuConfig::gtx480();
    config.scheme = &sim::resolve_scheme("seal-d");
    workload::RunOptions seal = options;
    seal.plan = bench::default_plan();
    seal.plan.encryption_ratio = ratio;
    const auto result = workload::run_network(specs, config, seal);
    std::uint64_t enc = 0, byp = 0;
    for (const auto& layer : result.layers) {
      enc += layer.stats.encrypted_bytes;
      byp += layer.stats.bypassed_bytes;
    }
    table.add_row({util::Table::pct(ratio, 0),
                   util::Table::fmt(result.overall_ipc(), 1),
                   util::Table::fmt(result.overall_ipc() / baseline, 2),
                   util::Table::pct(static_cast<double>(enc) /
                                    static_cast<double>(enc + byp + 1))});
  }
  table.print();

  bench::check_flags(flags);
  return 0;
}

}  // namespace
}  // namespace sealdl

int main(int argc, char** argv) { return sealdl::main_impl(argc, argv); }
