#include "verify/analysis.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sealdl::verify {

namespace {

using models::LayerSpec;

[[noreturn]] void not_applicable(Injection injection, const char* why) {
  throw std::invalid_argument(std::string("inject ") + injection_name(injection) +
                              " not applicable: " + why);
}

core::EncryptionPlan& require_plan(AnalysisInput& input) {
  if (!input.plan) not_applicable(input.inject, "baseline run has no plan");
  return *input.plan;
}

/// Corrupts the plan BEFORE the layout is built: the corruption propagates
/// consistently into the secure map, so exactly the targeted plan rule fires.
void apply_plan_injection(AnalysisInput& input) {
  switch (input.inject) {
    case Injection::kPlanRatio: {
      auto& layers = require_plan(input).mutable_layers();
      for (std::size_t i = 0; i < layers.size(); ++i) {
        if (input.boundary[i] || layers[i].encrypted_count() == 0) continue;
        layers[i].encrypted_rows.assign(layers[i].encrypted_rows.size(), 0);
        layers[i].fully_encrypted = false;
        return;
      }
      not_applicable(input.inject, "no non-boundary layer with encrypted rows");
    }
    case Injection::kPlanBoundary: {
      auto& layers = require_plan(input).mutable_layers();
      for (std::size_t i = 0; i < layers.size(); ++i) {
        if (!input.boundary[i]) continue;
        layers[i].encrypted_rows.assign(layers[i].encrypted_rows.size(), 0);
        layers[i].fully_encrypted = false;
        return;
      }
      not_applicable(input.inject, "plan has no boundary layers");
    }
    case Injection::kPlanResidual: {
      auto& layers = require_plan(input).mutable_layers();
      const std::vector<int> plan_index = core::ModelLayout::plan_indices(input.specs);
      for (std::size_t i = 0; i < input.specs.size(); ++i) {
        const int source = input.specs[i].skip_from;
        if (source < 0) continue;
        // The skip's consumer: the first weight layer after the closing conv.
        std::size_t next = i + 1;
        while (next < plan_index.size() && plan_index[next] < 0) ++next;
        if (next == plan_index.size()) continue;
        auto& entry = layers[static_cast<std::size_t>(
            plan_index[static_cast<std::size_t>(source)])];
        const auto& consumer = layers[static_cast<std::size_t>(plan_index[next])];
        if (consumer.fully_encrypted || entry.fully_encrypted) continue;
        // Swap one shared encrypted row for a plain one: the row count (and
        // so the ratio rule) is preserved, but the union no longer covers
        // the consumer's encrypted channels.
        int shared = -1, plain = -1;
        const int limit = std::min(entry.rows, consumer.rows);
        for (int r = 0; r < limit && shared < 0; ++r) {
          if (row_encrypted_safe(consumer, r) && row_encrypted_safe(entry, r)) shared = r;
        }
        for (int r = 0; r < entry.rows && plain < 0; ++r) {
          if (!row_encrypted_safe(entry, r)) plain = r;
        }
        if (shared < 0 || plain < 0) continue;
        entry.encrypted_rows[static_cast<std::size_t>(shared)] = 0;
        entry.encrypted_rows[static_cast<std::size_t>(plain)] = 1;
        return;
      }
      not_applicable(input.inject, "no identity block with a swappable row");
    }
    default:
      break;
  }
}

/// Corrupts the built model (secure map, plan vectors, or the layout's
/// directory) AFTER layout: the map and the plan now disagree, which is
/// precisely what the consistency rules exist to catch.
void apply_model_injection(AnalysisInput& input) {
  core::ModelLayout& layout = *input.layout;
  const auto& layers = layout.layers();
  switch (input.inject) {
    case Injection::kPlanShape: {
      auto& plan_layers = require_plan(input).mutable_layers();
      for (auto& layer : plan_layers) {
        if (layer.rows < 2) continue;
        layer.encrypted_rows.resize(static_cast<std::size_t>(layer.rows / 2));
        return;
      }
      not_applicable(input.inject, "no layer with >= 2 rows");
    }
    case Injection::kPlanClosure:
    case Injection::kTraceMixed: {
      const auto& plan = require_plan(input);
      for (std::size_t i = 0; i < input.specs.size(); ++i) {
        if (input.specs[i].type != LayerSpec::Type::kConv) continue;
        const int cp = layout.consumer_plan_index(i);
        if (cp < 0) continue;
        const auto& lp = plan.layer(static_cast<std::size_t>(cp));
        const int channels = std::min(layers[i].ifmap_channels, lp.rows);
        for (int c = 0; c < channels; ++c) {
          if (!row_encrypted_safe(lp, c)) continue;
          // Drop the channel's propagated encryption but keep the plan: the
          // classic "refactor forgot to mark the fmap" bug.
          input.heap.unmark_secure(
              layers[i].ifmap_base +
                  static_cast<std::uint64_t>(c) * layers[i].ifmap_channel_pitch,
              layers[i].ifmap_channel_pitch);
          return;
        }
      }
      not_applicable(input.inject, "no encrypted conv ifmap channel");
    }
    case Injection::kLayoutWeights: {
      const auto& plan = require_plan(input);
      for (std::size_t i = 0; i < input.specs.size(); ++i) {
        const int p = layout.plan_index(i);
        if (p < 0) continue;
        const auto& lp = plan.layer(static_cast<std::size_t>(p));
        for (int r = 0; r < lp.rows; ++r) {
          if (!row_encrypted_safe(lp, r)) continue;
          input.heap.unmark_secure(
              layers[i].weight_base +
                  static_cast<std::uint64_t>(r) * layers[i].weight_row_pitch,
              layers[i].weight_row_pitch);
          return;
        }
      }
      not_applicable(input.inject, "no encrypted weight row");
    }
    case Injection::kLayoutAlign:
    case Injection::kLayoutAccount: {
      const auto& plan = require_plan(input);
      for (std::size_t i = 0; i < input.specs.size(); ++i) {
        const int p = layout.plan_index(i);
        if (p < 0) continue;
        const auto& lp = plan.layer(static_cast<std::size_t>(p));
        for (int r = 0; r < lp.rows; ++r) {
          if (row_encrypted_safe(lp, r)) continue;
          const sim::Addr row =
              layers[i].weight_base +
              static_cast<std::uint64_t>(r) * layers[i].weight_row_pitch;
          if (input.inject == Injection::kLayoutAlign) {
            input.heap.mark_secure(row + 4, 8);  // unaligned edges
          } else {
            input.heap.mark_secure(row, 128);  // aligned, but unaccounted
          }
          return;
        }
      }
      not_applicable(input.inject, "no plaintext weight row (ratio 1.0?)");
    }
    case Injection::kLayoutUntagged: {
      const auto& plan = require_plan(input);
      for (std::size_t i = 0; i < input.specs.size(); ++i) {
        const int p = layout.plan_index(i);
        if (p < 0) continue;
        const auto& lp = plan.layer(static_cast<std::size_t>(p));
        if (lp.encrypted_count() == 0) continue;
        // Forget the region: its secure ranges are now orphans.
        const std::string name = input.specs[i].name + ".weights";
        std::erase_if(layout.mutable_directory(), [&](const core::Region& region) {
          return region.name == name;
        });
        return;
      }
      not_applicable(input.inject, "no weight region with secure ranges");
    }
    case Injection::kLayoutBounds:
      input.heap.mark_secure(input.heap.base() + input.heap.bytes_allocated() + 4096,
                             256);
      return;
    case Injection::kLayoutOverlap: {
      auto& directory = layout.mutable_directory();
      for (std::size_t k = 0; k + 1 < directory.size(); ++k) {
        if (directory[k].end <= directory[k + 1].begin) {
          directory[k].end = directory[k + 1].begin + 128;
          return;
        }
      }
      not_applicable(input.inject, "fewer than two disjoint regions");
    }
    default:
      break;
  }
}

}  // namespace

AnalysisInput build_input(const std::vector<models::LayerSpec>& specs,
                          const BuildOptions& options) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const int from = specs[i].skip_from;
    if (from == -1) continue;
    const auto source = static_cast<std::size_t>(from);
    if (from < 0 || source >= i || specs[source].type != LayerSpec::Type::kConv) {
      throw std::invalid_argument(specs[i].name + ": skip_from " + std::to_string(from) +
                                  " does not name an earlier CONV spec");
    }
  }

  AnalysisInput input;
  input.specs = specs;
  input.plan_options = options.plan;
  input.inject = options.inject;

  std::vector<bool> is_conv;
  for (const LayerSpec& s : specs) {
    if (s.type != LayerSpec::Type::kPool) is_conv.push_back(s.type == LayerSpec::Type::kConv);
  }
  input.boundary = core::boundary_layers(is_conv, options.plan);

  if (options.selective) {
    input.plan = core::EncryptionPlan::for_specs(specs, options.plan);
  }
  apply_plan_injection(input);

  // Throws std::invalid_argument on an empty spec chain.
  input.layout.emplace(specs, input.plan ? &*input.plan : nullptr, input.heap);
  apply_model_injection(input);
  return input;
}

}  // namespace sealdl::verify
