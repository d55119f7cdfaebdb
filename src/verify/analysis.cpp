#include "verify/analysis.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sealdl::verify {

namespace {

using models::LayerSpec;

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

void derive_regions(AnalysisInput& input) {
  const auto& layers = input.layout->layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto& layer = layers[i];
    const LayerSpec& s = input.specs[i];
    Region fmap;
    fmap.kind = Region::Kind::kFmap;
    fmap.begin = layer.ifmap_base;
    fmap.pitch = layer.ifmap_channel_pitch;
    fmap.units = layer.ifmap_channels;
    fmap.end = fmap.begin + fmap.pitch * static_cast<std::uint64_t>(fmap.units);
    fmap.spec_index = i;
    fmap.dense_fc = s.type == LayerSpec::Type::kFc;
    fmap.name = s.name + ".in";
    input.regions.push_back(fmap);

    if (s.type != LayerSpec::Type::kPool) {
      Region weights;
      weights.kind = Region::Kind::kWeights;
      weights.begin = layer.weight_base;
      weights.pitch = layer.weight_row_pitch;
      weights.units =
          s.type == LayerSpec::Type::kConv ? s.in_channels : s.in_features;
      weights.end =
          weights.begin + weights.pitch * static_cast<std::uint64_t>(weights.units);
      weights.spec_index = i;
      weights.name = s.name + ".weights";
      input.regions.push_back(weights);
    }
  }
  const auto& last = layers.back();
  Region out;
  out.kind = Region::Kind::kFmap;
  out.begin = last.ofmap_base;
  out.pitch = last.ofmap_channel_pitch;
  out.units = last.ofmap_channels;
  out.end = out.begin + out.pitch * static_cast<std::uint64_t>(out.units);
  out.spec_index = input.specs.size();
  out.dense_fc = input.specs.back().type == LayerSpec::Type::kFc;
  out.name = "output";
  input.regions.push_back(out);

  std::sort(input.regions.begin(), input.regions.end(),
            [](const Region& a, const Region& b) { return a.begin < b.begin; });
}

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
      for (const ResidualEdge& edge : input.residuals) {
        auto& entry = layers[static_cast<std::size_t>(input.plan_index[edge.entry_spec])];
        const auto& consumer =
            layers[static_cast<std::size_t>(input.plan_index[edge.consumer_spec])];
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

/// Corrupts the built model (secure map, plan vectors, or the analyzer's
/// region list) AFTER layout: the map and the plan now disagree, which is
/// precisely what the consistency rules exist to catch.
void apply_model_injection(AnalysisInput& input) {
  const auto& layers = input.layout->layers();
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
        const int cp = input.consumer_plan_index(i);
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
        if (input.plan_index[i] < 0) continue;
        const auto& lp = plan.layer(static_cast<std::size_t>(input.plan_index[i]));
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
        if (input.plan_index[i] < 0) continue;
        const auto& lp = plan.layer(static_cast<std::size_t>(input.plan_index[i]));
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
        if (input.plan_index[i] < 0) continue;
        const auto& lp = plan.layer(static_cast<std::size_t>(input.plan_index[i]));
        if (lp.encrypted_count() == 0) continue;
        // Forget the region: its secure ranges are now orphans.
        const std::string name = input.specs[i].name + ".weights";
        std::erase_if(input.regions, [&](const Region& region) {
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
      for (std::size_t k = 0; k + 1 < input.regions.size(); ++k) {
        if (input.regions[k].end <= input.regions[k + 1].begin) {
          input.regions[k].end = input.regions[k + 1].begin + 128;
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

int AnalysisInput::consumer_plan_index(std::size_t spec_index) const {
  for (std::size_t j = spec_index; j < specs.size(); ++j) {
    if (plan_index[j] >= 0) return plan_index[j];
  }
  return -1;
}

const Region* AnalysisInput::region_at(sim::Addr addr) const {
  auto it = std::upper_bound(
      regions.begin(), regions.end(), addr,
      [](sim::Addr a, const Region& region) { return a < region.begin; });
  if (it == regions.begin()) return nullptr;
  --it;
  return addr < it->end ? &*it : nullptr;
}

std::vector<ResidualEdge> residual_edges_from_names(
    const std::vector<models::LayerSpec>& specs) {
  std::vector<ResidualEdge> edges;
  for (std::size_t i = 0; i + 1 < specs.size(); ++i) {
    const LayerSpec& a = specs[i];
    if (a.type != LayerSpec::Type::kConv || !ends_with(a.name, "_a")) continue;
    const std::string prefix = a.name.substr(0, a.name.size() - 2);
    const LayerSpec& b = specs[i + 1];
    if (b.type != LayerSpec::Type::kConv || b.name != prefix + "_b") continue;
    // A projection on the skip path gets its own plan layer; only identity
    // skips carry the entry fmap's channels through unmodified.
    if (i + 2 < specs.size() && specs[i + 2].name == prefix + "_proj") continue;
    if (a.stride != 1 || a.in_channels != b.out_channels) continue;
    std::size_t consumer = i + 2;
    while (consumer < specs.size() && specs[consumer].type == LayerSpec::Type::kPool) {
      ++consumer;
    }
    if (consumer >= specs.size()) continue;
    edges.push_back(ResidualEdge{i, i + 1, consumer});
  }
  return edges;
}

AnalysisInput build_input(const std::vector<models::LayerSpec>& specs,
                          const BuildOptions& options) {
  if (specs.empty()) throw std::invalid_argument("sealdl-check: empty spec chain");
  AnalysisInput input;
  input.specs = specs;
  input.plan_options = options.plan;
  input.inject = options.inject;

  input.plan_index.assign(specs.size(), -1);
  std::vector<bool> is_conv;
  int weight_idx = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].type == LayerSpec::Type::kPool) continue;
    input.plan_index[i] = weight_idx++;
    is_conv.push_back(specs[i].type == LayerSpec::Type::kConv);
  }
  input.boundary = core::boundary_layers(is_conv, options.plan);
  input.residuals = residual_edges_from_names(specs);

  if (options.selective) {
    input.plan = core::EncryptionPlan::for_specs(specs, options.plan);
  }
  apply_plan_injection(input);

  input.layout.emplace(specs, input.plan ? &*input.plan : nullptr, input.heap);
  derive_regions(input);
  apply_model_injection(input);
  return input;
}

}  // namespace sealdl::verify
