// Deploying a model with the emalloc() programming primitive (paper §III-A):
// what an application developer writes, and what it costs.
//
// Walks one real deployment flow: derive the SE plan from the trained
// weights, allocate weight rows with malloc()/emalloc() accordingly, verify
// that encrypted inference is bit-transparent to the computation, and report
// the per-network latency of the protection on the simulated accelerator.
//
//   ./secure_inference [--model resnet18] [--ratio 0.5]
#include <cstdio>

#include "core/encryption_plan.hpp"
#include "core/model_layout.hpp"
#include "core/secure_heap.hpp"
#include "models/build.hpp"
#include "models/layer_spec.hpp"
#include "nn/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "sim/functional_memory.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/network_runner.hpp"

using namespace sealdl;

int main(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const std::string model_name = flags.get("model", "resnet18");
  const double ratio = flags.get_double("ratio", 0.5);

  // A trained model to protect.
  models::BuildOptions build;
  build.input_hw = 16;
  build.width_div = 16;
  auto model = models::build_model(model_name, build);

  core::PlanOptions plan_options;
  plan_options.encryption_ratio = ratio;
  const auto plan = core::EncryptionPlan::from_model(*model, plan_options);

  // --- emalloc in action ------------------------------------------------------
  // The deployment tool walks the plan: encrypted rows go to emalloc(),
  // plaintext rows to plain malloc(). The secure map that the hardware
  // consults falls out of the allocation calls — no other bookkeeping.
  core::SecureHeap heap;
  const auto layers = core::collect_weight_layers(*model);
  std::uint64_t secure_rows = 0, total_rows = 0;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const auto& layer = layers[li];
    const std::uint64_t row_bytes =
        static_cast<std::uint64_t>(layer.cols) *
        static_cast<std::uint64_t>(layer.weights_per_cell) * 4;
    for (int r = 0; r < layer.rows; ++r) {
      if (plan.layer(li).row_encrypted(r)) {
        heap.emalloc(row_bytes);
        ++secure_rows;
      } else {
        heap.malloc(row_bytes);
      }
      ++total_rows;
    }
  }
  std::printf("emalloc'd %llu of %llu kernel rows (%.0f%% of weight bytes secure)\n",
              static_cast<unsigned long long>(secure_rows),
              static_cast<unsigned long long>(total_rows),
              plan.overall_encrypted_weight_fraction() * 100.0);

  // --- transparency check -----------------------------------------------------
  // Round-trip the weights through encrypted functional memory and verify the
  // model computes identical logits: encryption is invisible to correctness.
  crypto::Key128 key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i + 100);
  sim::FunctionalMemory memory(sim::resolve_scheme("seal-d"),
                               &heap.secure_map(), key);
  const auto bytes = nn::serialize_params(*model);
  memory.write(0x1000'0000, bytes);
  std::vector<std::uint8_t> readback(bytes.size());
  memory.read(0x1000'0000, readback);

  nn::DatasetConfig data_config;
  data_config.height = data_config.width = 16;
  data_config.samples = 64;
  nn::SyntheticDataset dataset(data_config);
  nn::Tensor probe = dataset.batch({0, 1, 2, 3});
  nn::Tensor before = model->forward(probe, false);
  nn::deserialize_params(*model, readback);
  nn::Tensor after = model->forward(probe, false);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < before.numel(); ++i) {
    max_diff = std::max(max_diff, static_cast<double>(std::abs(before[i] - after[i])));
  }
  std::printf("encrypted round-trip logit difference: %.1e (bit-transparent)\n\n",
              max_diff);

  // --- cost on the accelerator ------------------------------------------------
  const auto specs = models::network_specs(model_name);
  util::Table table({"scheme", "latency (ms @700MHz)", "vs baseline"});
  double baseline_ms = 0.0;
  struct Run {
    const char* name;
    const char* scheme;  ///< registry CLI name
  };
  for (const Run& run : {Run{"Baseline (insecure)", "baseline"},
                         Run{"Direct full encryption", "direct"},
                         Run{"SEAL-D", "seal-d"}}) {
    sim::GpuConfig config = sim::GpuConfig::gtx480();
    config.scheme = &sim::resolve_scheme(run.scheme);
    workload::RunOptions options;
    options.max_tiles_per_layer = 240;
    options.plan = plan_options;
    const auto result = workload::run_network(specs, config, options);
    const double ms = result.total_cycles() / 700e6 * 1e3;
    if (baseline_ms == 0.0) baseline_ms = ms;
    table.add_row({run.name, util::Table::fmt(ms, 2),
                   util::Table::fmt(ms / baseline_ms, 2) + "x"});
  }
  std::printf("%s inference latency on the simulated GTX480:\n", model_name.c_str());
  table.print();

  for (const auto& unused : flags.unused()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", unused.c_str());
  }
  return 0;
}
