// Paper Figure 7: overall IPC for full VGG-16 / ResNet-18 / ResNet-34
// inference under the five schemes, normalized to Baseline.
//
//   ./fig7_overall_ipc [--tiles 480] [--ratio 0.5] [--input 224] [--jobs N]
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "models/layer_spec.hpp"

namespace sealdl {
namespace {

int main_impl(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const auto tiles = flags.get_uint("tiles", 480);
  const double ratio = flags.get_double("ratio", 0.5);
  const int input = static_cast<int>(flags.get_int("input", 224));
  const int jobs = bench::jobs_from_flags(flags);
  auto collect = bench::telemetry_from_flags(flags);
  flags.reject_unknown();

  bench::banner("Figure 7 — overall IPC normalized to Baseline",
                "Direct/Counter reduce whole-inference IPC by 30-38%; SEAL-D "
                "and SEAL-C improve over them by 1.4x and 1.34x (plus the "
                "Seculator/GuardNN rivals for context)");

  const std::vector<std::pair<std::string, std::vector<models::LayerSpec>>> nets = {
      {"VGG-16", models::vgg16_specs(input)},
      {"ResNet-18", models::resnet18_specs(input)},
      {"ResNet-34", models::resnet34_specs(input)},
  };

  util::Table table({"scheme", "VGG-16", "ResNet-18", "ResNet-34"});
  std::vector<double> baseline(nets.size(), 0.0);
  std::map<std::string, std::vector<double>> normalized;  ///< by CLI name

  const auto schemes = bench::all_schemes();
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::vector<std::string> row{schemes[s].name};
    for (std::size_t n = 0; n < nets.size(); ++n) {
      workload::RunOptions options;
      options.max_tiles_per_layer = tiles;
      options.plan = bench::default_plan();
      options.plan.encryption_ratio = ratio;
      options.telemetry = collect.get();
      options.jobs = jobs;
      const std::size_t first = collect ? collect->layers().size() : 0;
      const auto result = workload::run_network(
          nets[n].second, bench::configure(schemes[s]), options);
      bench::tag_new_layers(collect.get(), first,
                            schemes[s].name + "/" + nets[n].first);
      if (schemes[s].info->family == sim::EncryptionScheme::kNone) {
        baseline[n] = result.overall_ipc();
      }
      const double norm = result.overall_ipc() / baseline[n];
      normalized[schemes[s].info->cli_name].push_back(norm);
      row.push_back(util::Table::fmt(norm, 2));
    }
    table.add_row(std::move(row));
  }
  table.print();

  // The headline ratios of the paper's abstract.
  const double seal_d = util::mean(normalized.at("seal-d"));
  const double direct = util::mean(normalized.at("direct"));
  const double seal_c = util::mean(normalized.at("seal-c"));
  const double counter = util::mean(normalized.at("counter"));
  std::printf("\nSEAL-D / Direct  = %.2fx (paper: 1.40x)\n", seal_d / direct);
  std::printf("SEAL-C / Counter = %.2fx (paper: 1.34x)\n", seal_c / counter);

  bench::export_telemetry(flags, "fig7_overall_ipc", sim::GpuConfig::gtx480(),
                          collect.get());
  return 0;
}

}  // namespace
}  // namespace sealdl

int main(int argc, char** argv) {
  return sealdl::bench::run_main(sealdl::main_impl, argc, argv);
}
