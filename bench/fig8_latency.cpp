// Paper Figure 8: whole-inference latency normalized to Baseline.
//
//   ./fig8_latency [--tiles 480] [--ratio 0.5] [--input 224] [--jobs N]
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
  flags.reject_unknown();

  bench::banner("Figure 8 — inference latency normalized to Baseline",
                "Direct/Counter increase latency by 39-60%; SEAL-D and SEAL-C "
                "reduce it by 28%/26% relative to them");

  const std::vector<std::pair<std::string, std::vector<models::LayerSpec>>> nets = {
      {"VGG-16", models::vgg16_specs(input)},
      {"ResNet-18", models::resnet18_specs(input)},
      {"ResNet-34", models::resnet34_specs(input)},
  };

  util::Table table({"scheme", "VGG-16", "ResNet-18", "ResNet-34", "ms @700MHz"});
  std::vector<double> baseline(nets.size(), 0.0);
  std::map<std::string, std::vector<double>> normalized;  ///< by CLI name

  const auto schemes = bench::all_schemes();
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::vector<std::string> row{schemes[s].name};
    double total_ms = 0.0;
    for (std::size_t n = 0; n < nets.size(); ++n) {
      workload::RunOptions options;
      options.max_tiles_per_layer = tiles;
      options.plan = bench::default_plan();
      options.plan.encryption_ratio = ratio;
      options.jobs = jobs;
      const auto result = workload::run_network(
          nets[n].second, bench::configure(schemes[s]), options);
      const double cycles = result.total_cycles();
      if (schemes[s].info->family == sim::EncryptionScheme::kNone) {
        baseline[n] = cycles;
      }
      normalized[schemes[s].info->cli_name].push_back(cycles / baseline[n]);
      row.push_back(util::Table::fmt(cycles / baseline[n], 2));
      total_ms += cycles / 700e6 * 1e3;
    }
    row.push_back(util::Table::fmt(total_ms, 1));
    table.add_row(std::move(row));
  }
  table.print();

  const double direct = util::mean(normalized.at("direct"));
  const double counter = util::mean(normalized.at("counter"));
  const double seal_d = util::mean(normalized.at("seal-d"));
  const double seal_c = util::mean(normalized.at("seal-c"));
  std::printf("\nDirect latency overhead vs Baseline:  +%.0f%% (paper: +39-60%%)\n",
              (direct - 1.0) * 100.0);
  std::printf("Counter latency overhead vs Baseline: +%.0f%% (paper: +39-60%%)\n",
              (counter - 1.0) * 100.0);
  std::printf("SEAL-D reduces latency vs Direct by   %.0f%% (paper: 28%%)\n",
              (1.0 - seal_d / direct) * 100.0);
  std::printf("SEAL-C reduces latency vs Counter by  %.0f%% (paper: 26%%)\n",
              (1.0 - seal_c / counter) * 100.0);

  return 0;
}

}  // namespace
}  // namespace sealdl

int main(int argc, char** argv) {
  return sealdl::bench::run_main(sealdl::main_impl, argc, argv);
}
