// Paper Figure 5: normalized IPC of four typical VGG CONV layers
// (64/128/256/512 channels) under the five schemes.
//
//   ./fig5_conv_layers [--tiles 960] [--ratio 0.5] [--jobs N]
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
  auto collect = bench::telemetry_from_flags(flags);
  flags.reject_unknown();

  bench::banner("Figure 5 — per-CONV-layer IPC normalized to Baseline",
                "Direct/Counter reduce IPC by up to 40%; SEAL-D/SEAL-C improve "
                "over them by 39%/33% at the default 50% encryption ratio");

  const auto layers = models::fig5_conv_layers();
  util::Table table({"scheme", "CONV-1", "CONV-2", "CONV-3", "CONV-4", "mean"});

  std::vector<double> baseline(layers.size(), 0.0);
  for (const auto& scheme : bench::five_schemes()) {
    std::vector<std::string> row{scheme.name};
    std::vector<double> normalized;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const std::size_t first = collect ? collect->layers().size() : 0;
      const auto result = bench::run_body_layer(layers[i], scheme, tiles, ratio,
                                                collect.get(), jobs);
      bench::tag_new_layers(collect.get(), first, scheme.name);
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

  bench::export_telemetry(flags, "fig5_conv_layers", sim::GpuConfig::gtx480(),
                          collect.get());
  return 0;
}

}  // namespace
}  // namespace sealdl

int main(int argc, char** argv) {
  return sealdl::bench::run_main(sealdl::main_impl, argc, argv);
}
