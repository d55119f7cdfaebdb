// Quickstart: the SEAL pipeline end to end, on a small CNN, in one page.
//
//  1. build and "train" a model,
//  2. rank kernel rows by l1 importance and derive an encryption plan,
//  3. lay the model out in accelerator memory with emalloc-marked ranges,
//  4. simulate an inference under Baseline / full encryption / SEAL,
//  5. print the resulting IPC and encrypted-traffic fractions.
//
//   ./quickstart
#include <cstdio>

#include "core/encryption_plan.hpp"
#include "core/model_layout.hpp"
#include "core/secure_heap.hpp"
#include "models/build.hpp"
#include "models/layer_spec.hpp"
#include "nn/dataset.hpp"
#include "nn/trainer.hpp"
#include "sim/scheme_registry.hpp"
#include "util/table.hpp"
#include "workload/network_runner.hpp"

using namespace sealdl;

int main() {
  // --- 1. a small trained VGG-16 (width-scaled) ------------------------------
  models::BuildOptions build;
  build.input_hw = 16;
  build.width_div = 16;
  auto model = models::build_vgg16(build);

  nn::DatasetConfig data_config;
  data_config.height = data_config.width = 16;
  data_config.samples = 600;
  data_config.noise_stddev = 0.1f;  // easy split: this is a demo, not an eval
  nn::SyntheticDataset dataset(data_config);
  nn::TrainOptions train;
  train.epochs = 3;
  train.sgd.lr = 0.02f;
  nn::train(*model, dataset, dataset.victim_train_indices(100), {}, train);
  std::printf("trained model, test accuracy %.1f%%\n\n",
              nn::evaluate(*model, dataset, dataset.test_indices(100)) * 100.0);

  // --- 2. the criticality-aware Smart Encryption plan ------------------------
  core::PlanOptions plan_options;  // paper defaults: 50% ratio, boundary policy
  const auto plan = core::EncryptionPlan::from_model(*model, plan_options);
  std::printf("SE plan: %zu weight layers, %.0f%% of weight parameters encrypted\n",
              plan.layer_count(), plan.overall_encrypted_weight_fraction() * 100.0);
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("  layer %zu: %d/%d kernel rows encrypted%s\n", i,
                plan.layer(i).encrypted_count(), plan.layer(i).rows,
                plan.layer(i).fully_encrypted ? " (boundary policy)" : "");
  }

  // --- 3+4. simulate inference traffic under three schemes -------------------
  // Timing uses the full-size VGG-16 geometry; the plan ratio carries over.
  const auto specs = models::vgg16_specs(224);
  util::Table table({"scheme", "IPC", "normalized", "encrypted traffic"});
  double baseline = 0.0;
  struct Run {
    const char* name;
    const char* scheme;  ///< registry CLI name
  };
  for (const Run& run : {Run{"Baseline", "baseline"},
                         Run{"Direct (full)", "direct"},
                         Run{"SEAL-D", "seal-d"}}) {
    sim::GpuConfig config = sim::GpuConfig::gtx480();
    config.scheme = &sim::resolve_scheme(run.scheme);
    workload::RunOptions options;
    options.max_tiles_per_layer = 240;  // sampled; keeps the demo snappy
    const auto result = workload::run_network(specs, config, options);
    if (baseline == 0.0) baseline = result.overall_ipc();
    std::uint64_t enc = 0, total = 0;
    for (const auto& layer : result.layers) {
      enc += layer.stats.encrypted_bytes;
      total += layer.stats.dram_bytes();
    }
    table.add_row({run.name, util::Table::fmt(result.overall_ipc(), 1),
                   util::Table::fmt(result.overall_ipc() / baseline, 2),
                   util::Table::pct(total ? static_cast<double>(enc) /
                                                static_cast<double>(total)
                                          : 0.0)});
  }
  std::printf("\nsimulated VGG-16 inference on the GTX480 model:\n");
  table.print();
  std::printf("\nSEAL keeps near-baseline IPC while the critical half of the "
              "model is ciphertext on the bus.\n");
  return 0;
}
