// The threat, demonstrated: a bus snooper watches every DRAM transaction
// while a model's weights stream through the memory bus, then tries to
// reassemble the model.
//
// Three accelerators are attacked: unprotected, SEAL-protected (50% ratio),
// and fully encrypted. The snooper works exactly like the paper's adversary:
// it records the wire bytes of every transfer (functional memory carries real
// AES ciphertext) and reads out the address ranges where the weights live.
//
//   ./bus_snooping_attack
#include <cmath>
#include <cstdio>
#include <cstring>

#include "attack/bus_snooper.hpp"
#include "core/encryption_plan.hpp"
#include "core/model_layout.hpp"
#include "core/secure_heap.hpp"
#include "models/build.hpp"
#include "nn/serialize.hpp"
#include "sim/functional_memory.hpp"
#include "util/table.hpp"

using namespace sealdl;

namespace {

/// Writes the model's kernel rows into simulated DRAM with the layout the
/// accelerator uses (input-channel-major rows), then streams them back —
/// the inference-time traffic the snooper taps.
void place_and_stream(nn::Layer& model, const core::EncryptionPlan* plan,
                      sim::FunctionalMemory& memory, core::SecureHeap& heap) {
  const auto layers = core::collect_weight_layers(model);
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const auto& layer = layers[li];
    const std::size_t row_floats =
        static_cast<std::size_t>(layer.cols) * static_cast<std::size_t>(layer.weights_per_cell);
    for (int r = 0; r < layer.rows; ++r) {
      // Gather kernel row r (input-channel-major layout).
      std::vector<float> row(row_floats);
      if (layer.is_conv) {
        const int cell = layer.weights_per_cell;
        for (int oc = 0; oc < layer.cols; ++oc) {
          const std::size_t src =
              (static_cast<std::size_t>(oc) * static_cast<std::size_t>(layer.rows) +
               static_cast<std::size_t>(r)) * static_cast<std::size_t>(cell);
          std::memcpy(row.data() + static_cast<std::size_t>(oc) * static_cast<std::size_t>(cell),
                      &layer.weight->value[src], static_cast<std::size_t>(cell) * sizeof(float));
        }
      } else {
        for (int o = 0; o < layer.cols; ++o) {
          row[static_cast<std::size_t>(o)] =
              layer.weight->value[static_cast<std::size_t>(o) * static_cast<std::size_t>(layer.rows) +
                                  static_cast<std::size_t>(r)];
        }
      }
      const bool secure =
          plan && plan->layer(li).row_encrypted(r);
      const auto alloc =
          secure ? heap.emalloc(row.size() * sizeof(float))
                 : heap.malloc(row.size() * sizeof(float));
      memory.write(alloc.addr, {reinterpret_cast<const std::uint8_t*>(row.data()),
                                row.size() * sizeof(float)});
      // Inference streams the weights back through the bus.
      std::vector<std::uint8_t> readback(row.size() * sizeof(float));
      memory.read(alloc.addr, readback);
    }
  }
}

/// Fraction of weight floats the snooper recovered exactly.
double recovered_fraction(nn::Layer& model, const attack::BusSnooper& snooper,
                          core::SecureHeap& heap_used,
                          const core::EncryptionPlan* plan) {
  // Re-walk the same deterministic allocation order to know where rows live.
  core::SecureHeap heap;  // fresh heap replays identical addresses
  const auto layers = core::collect_weight_layers(model);
  std::size_t recovered = 0, total = 0;
  (void)heap_used;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const auto& layer = layers[li];
    const std::size_t row_floats =
        static_cast<std::size_t>(layer.cols) * static_cast<std::size_t>(layer.weights_per_cell);
    for (int r = 0; r < layer.rows; ++r) {
      std::vector<float> expected(row_floats);
      if (layer.is_conv) {
        const int cell = layer.weights_per_cell;
        for (int oc = 0; oc < layer.cols; ++oc) {
          const std::size_t src =
              (static_cast<std::size_t>(oc) * static_cast<std::size_t>(layer.rows) +
               static_cast<std::size_t>(r)) * static_cast<std::size_t>(cell);
          std::memcpy(expected.data() + static_cast<std::size_t>(oc) * static_cast<std::size_t>(cell),
                      &layer.weight->value[src], static_cast<std::size_t>(cell) * sizeof(float));
        }
      } else {
        for (int o = 0; o < layer.cols; ++o) {
          expected[static_cast<std::size_t>(o)] =
              layer.weight->value[static_cast<std::size_t>(o) * static_cast<std::size_t>(layer.rows) +
                                  static_cast<std::size_t>(r)];
        }
      }
      const bool secure = plan && plan->layer(li).row_encrypted(r);
      const auto alloc = secure ? heap.emalloc(expected.size() * sizeof(float))
                                : heap.malloc(expected.size() * sizeof(float));
      const auto seen = snooper.extract(alloc.addr, expected.size() * sizeof(float));
      const auto* seen_floats = reinterpret_cast<const float*>(seen.data());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ++total;
        if (seen_floats[i] == expected[i]) ++recovered;
      }
    }
  }
  return static_cast<double>(recovered) / static_cast<double>(total);
}

}  // namespace

int main() {
  std::printf("Building a victim model whose weights are the secret...\n");
  models::BuildOptions build;
  build.input_hw = 16;
  build.width_div = 16;
  auto model = models::build_vgg16(build);

  crypto::Key128 key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(31 * i + 7);

  struct Scenario {
    const char* name;
    const char* scheme;  ///< registry CLI name
  };
  const Scenario scenarios[] = {
      {"no protection", "baseline"},
      {"SEAL (50% ratio)", "seal-d"},
      {"full encryption", "direct"},
  };

  core::PlanOptions plan_options;
  const auto plan = core::EncryptionPlan::from_model(*model, plan_options);

  util::Table table({"accelerator", "bus transfers", "ciphertext transfers",
                     "weights recovered"});
  for (const Scenario& s : scenarios) {
    const sim::SchemeInfo& scheme = sim::resolve_scheme(s.scheme);
    const core::EncryptionPlan* scheme_plan =
        scheme.scope == sim::ProtectionScope::kPlanRows ? &plan : nullptr;
    core::SecureHeap heap;
    sim::FunctionalMemory memory(scheme, &heap.secure_map(), key);
    attack::BusSnooper snooper;
    memory.set_probe(&snooper);
    place_and_stream(*model, scheme_plan, memory, heap);
    const double recovered =
        recovered_fraction(*model, snooper, heap, scheme_plan);
    table.add_row({s.name, std::to_string(snooper.transfers()),
                   std::to_string(snooper.encrypted_transfers()),
                   util::Table::pct(recovered)});
  }
  table.print();

  std::printf(
      "\nWithout protection the snooper reconstructs the entire model.\n"
      "Under SEAL the unimportant rows remain readable by design, while every\n"
      "critical row (largest l1-norm) crosses the bus only as AES ciphertext.\n");
  return 0;
}
