// Paper Figure 6: normalized IPC of the VGG POOL layers under five schemes.
//
//   ./fig6_pool_layers [--tiles 960] [--ratio 0.5] [--jobs N]
#include <cstdio>

#include "bench/bench_common.hpp"
#include "models/layer_spec.hpp"

namespace sealdl {
namespace {

int main_impl(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const auto tiles = flags.get_uint("tiles", 960);
  const double ratio = flags.get_double("ratio", 0.5);
  const int jobs = bench::jobs_from_flags(flags);
  flags.reject_unknown();

  bench::banner("Figure 6 — per-POOL-layer IPC normalized to Baseline",
                "Direct/Counter reduce IPC by up to 50% (POOL is more "
                "bandwidth-bound than CONV); SEAL-D/SEAL-C improve over them "
                "by 66%/44%");

  const auto layers = models::fig6_pool_layers();
  std::vector<std::string> header{"scheme"};
  for (const auto& layer : layers) header.push_back(layer.name);
  header.push_back("mean");
  util::Table table(header);

  std::vector<double> baseline(layers.size(), 0.0);
  for (const auto& scheme : bench::five_schemes()) {
    std::vector<std::string> row{scheme.name};
    std::vector<double> normalized;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const auto result =
          bench::run_body_layer(layers[i], scheme, tiles, ratio, nullptr, jobs);
      if (scheme.info->family == sim::EncryptionScheme::kNone) {
        baseline[i] = result.ipc();
      }
      const double norm = result.ipc() / baseline[i];
      normalized.push_back(norm);
      row.push_back(util::Table::fmt(norm, 2));
    }
    row.push_back(util::Table::fmt(util::mean(normalized), 2));
    table.add_row(std::move(row));
  }
  table.print();

  return 0;
}

}  // namespace
}  // namespace sealdl

int main(int argc, char** argv) {
  return sealdl::bench::run_main(sealdl::main_impl, argc, argv);
}
