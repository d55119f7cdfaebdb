// Cross-module integration: the full SEAL story on a small model —
// plan -> layout -> encrypted memory -> snooping adversary -> timing runs.
#include <gtest/gtest.h>

#include "attack/bus_snooper.hpp"
#include "attack/pipeline.hpp"
#include "core/encryption_plan.hpp"
#include "core/model_layout.hpp"
#include "core/secure_heap.hpp"
#include "models/build.hpp"
#include "models/layer_spec.hpp"
#include "nn/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "sim/functional_memory.hpp"
#include "workload/network_runner.hpp"

namespace sealdl {
namespace {

crypto::Key128 test_key() {
  crypto::Key128 key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(200 - i);
  return key;
}

models::BuildOptions tiny_build() {
  models::BuildOptions build;
  build.input_hw = 8;
  build.width_div = 16;
  return build;
}

TEST(Integration, EncryptedStorageIsTransparentToInference) {
  // A model whose weights round-trip through encrypted memory must compute
  // bit-identical results — encryption only changes what the bus carries.
  auto model = models::build_resnet18(tiny_build());
  const auto bytes = nn::serialize_params(*model);

  for (const char* scheme : {"direct", "counter"}) {
    sim::FunctionalMemory memory(sim::resolve_scheme(scheme), nullptr, test_key());
    memory.write(0x100000, bytes);
    std::vector<std::uint8_t> readback(bytes.size());
    memory.read(0x100000, readback);
    EXPECT_EQ(readback, bytes) << scheme;
  }
}

TEST(Integration, PlanLayoutAndMapAgreeOnEveryRow) {
  // The SE invariant, end to end: a weight row's address range is secure in
  // the map exactly when the plan marks the row encrypted; same for the
  // fmap channel feeding it (paper §III-A: encrypted operands only ever
  // meet encrypted operands).
  const auto specs = models::vgg16_specs(32);
  std::vector<int> rows;
  std::vector<bool> is_conv;
  for (const auto& s : specs) {
    if (s.type == models::LayerSpec::Type::kPool) continue;
    rows.push_back(s.type == models::LayerSpec::Type::kConv ? s.in_channels
                                                            : s.in_features);
    is_conv.push_back(s.type == models::LayerSpec::Type::kConv);
  }
  core::PlanOptions options;  // paper defaults
  const auto plan = core::EncryptionPlan::from_row_counts(rows, is_conv, options);
  core::SecureHeap heap;
  core::ModelLayout layout(specs, &plan, heap);

  int plan_idx = 0;
  for (const auto& layer : layout.layers()) {
    if (layer.spec.type == models::LayerSpec::Type::kPool) continue;
    const auto& lp = plan.layer(static_cast<std::size_t>(plan_idx++));
    const int layer_rows = layer.spec.type == models::LayerSpec::Type::kConv
                               ? layer.spec.in_channels
                               : layer.spec.in_features;
    for (int r = 0; r < layer_rows; ++r) {
      const sim::Addr row_addr =
          layer.weight_base + static_cast<std::uint64_t>(r) * layer.weight_row_pitch;
      EXPECT_EQ(heap.secure_map().is_secure(row_addr), lp.row_encrypted(r))
          << layer.spec.name << " row " << r;
      if (layer.spec.type == models::LayerSpec::Type::kConv) {
        const sim::Addr channel_addr =
            layer.ifmap_base + static_cast<std::uint64_t>(r) * layer.ifmap_channel_pitch;
        EXPECT_EQ(heap.secure_map().is_secure(channel_addr), lp.row_encrypted(r))
            << layer.spec.name << " channel " << r;
      }
    }
  }
}

TEST(Integration, SnooperLearnsNothingAboutEncryptedRowsEndToEnd) {
  // Place real trained weights per the plan, stream them, snoop the bus, and
  // check byte-exact recovery of plaintext rows and zero recovery of
  // ciphertext rows.
  auto model = models::build_vgg16(tiny_build());
  core::PlanOptions plan_options;
  plan_options.encryption_ratio = 0.5;
  const auto plan = core::EncryptionPlan::from_model(*model, plan_options);

  core::SecureHeap heap;
  sim::FunctionalMemory memory(sim::resolve_scheme("seal-d"),
                               &heap.secure_map(), test_key());
  attack::BusSnooper snooper;
  memory.set_probe(&snooper);

  struct RowRecord {
    sim::Addr addr;
    std::vector<std::uint8_t> payload;
    bool encrypted;
  };
  std::vector<RowRecord> records;
  const auto layers = core::collect_weight_layers(*model);
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const auto& layer = layers[li];
    const std::size_t row_bytes = static_cast<std::size_t>(layer.cols) *
                                  static_cast<std::size_t>(layer.weights_per_cell) *
                                  sizeof(float);
    for (int r = 0; r < layer.rows; ++r) {
      const bool enc = plan.layer(li).row_encrypted(r);
      const auto alloc = enc ? heap.emalloc(row_bytes) : heap.malloc(row_bytes);
      // Row payload: deterministic bytes derived from the weights.
      std::vector<std::uint8_t> payload(row_bytes);
      for (std::size_t i = 0; i < row_bytes; ++i) {
        payload[i] = static_cast<std::uint8_t>((li * 31 + static_cast<std::size_t>(r) * 7 + i) & 0xFF);
      }
      memory.write(alloc.addr, payload);
      records.push_back({alloc.addr, std::move(payload), enc});
    }
  }

  std::size_t plain_rows = 0, encrypted_rows = 0;
  for (const auto& record : records) {
    const auto seen = snooper.extract(record.addr, record.payload.size());
    if (record.encrypted) {
      EXPECT_NE(seen, record.payload);
      ++encrypted_rows;
    } else {
      EXPECT_EQ(seen, record.payload);
      ++plain_rows;
    }
  }
  EXPECT_GT(plain_rows, 0u);
  EXPECT_GT(encrypted_rows, plain_rows);  // boundary policy adds extra rows
}

TEST(Integration, TimingSchemesOrderAcrossWholeNetworks) {
  // The headline performance ordering must hold for every paper model:
  // Baseline > SEAL-D > Direct (IPC), and the SEAL encrypted-traffic share
  // must sit near the plan's overall fraction.
  for (const char* name : {"vgg16", "resnet18"}) {
    const auto specs = std::string(name) == "vgg16" ? models::vgg16_specs(64)
                                                    : models::resnet18_specs(64);
    workload::RunOptions options;
    options.max_tiles_per_layer = 100;

    sim::GpuConfig config = sim::GpuConfig::gtx480();
    const auto baseline = workload::run_network(specs, config, options);

    config.scheme = &sim::resolve_scheme("direct");
    const auto direct = workload::run_network(specs, config, options);

    config.scheme = &sim::resolve_scheme("seal-d");
    const auto seal = workload::run_network(specs, config, options);

    EXPECT_GT(baseline.overall_ipc(), seal.overall_ipc()) << name;
    EXPECT_GT(seal.overall_ipc(), direct.overall_ipc()) << name;
    EXPECT_LT(seal.total_cycles(), direct.total_cycles()) << name;
  }
}

TEST(Integration, SecurityPipelineSmoke) {
  // A miniature run of the full §III-B experiment: victim, corpus, white/
  // black/SEAL substitutes; ordering of knowledge must show in accuracy.
  attack::PipelineOptions o;
  o.model = "vgg16";
  o.build.input_hw = 12;
  o.build.width_div = 16;
  o.dataset.height = o.dataset.width = 12;
  o.dataset.samples = 600;
  o.dataset.noise_stddev = 0.1f;
  o.dataset.max_shift = 1;
  o.dataset.contrast_jitter = 0.1f;
  o.test_holdout = 80;
  o.victim_train.epochs = 4;
  o.victim_train.sgd.lr = 0.03f;
  o.substitute_train.epochs = 2;
  o.substitute_train.sgd.lr = 0.02f;
  o.augment.rounds = 1;
  attack::SecurityPipeline pipe(o);
  pipe.prepare();

  const double victim = pipe.victim_test_accuracy();
  EXPECT_GT(victim, 0.5);  // learns the easy miniature task

  auto white = pipe.white_box();
  EXPECT_DOUBLE_EQ(pipe.test_accuracy(*white), victim);

  auto black = pipe.black_box();
  const double bb = pipe.test_accuracy(*black);
  EXPECT_LT(bb, victim);  // oracle-only knowledge is strictly weaker here

  auto seal = pipe.seal_substitute(0.5);
  const double sub = pipe.test_accuracy(*seal);
  EXPECT_GT(sub, 0.05);  // sane output, not NaN/collapse
  EXPECT_LE(sub, victim + 1e-9);
}

}  // namespace
}  // namespace sealdl
