#include "core/model_layout.hpp"

#include <algorithm>
#include <stdexcept>

namespace sealdl::core {

namespace {

constexpr std::uint64_t kLine = 128;

std::uint64_t align_line(std::uint64_t bytes) {
  return (bytes + kLine - 1) & ~(kLine - 1);
}

using models::LayerSpec;

/// Marks unit u of the buffer at `base` secure iff plan row u is encrypted,
/// for u < count, and returns the bytes marked. A run of consecutive
/// encrypted rows goes to the map as one range: the map would coalesce the
/// rows anyway, so the result is the same at one update per run, not per row.
std::uint64_t mark_encrypted_rows(SecureHeap& heap, sim::Addr base,
                                  std::uint64_t pitch, int count,
                                  const LayerPlan& plan) {
  std::uint64_t marked = 0;
  for (int begin = 0; begin < count;) {
    if (!plan.row_encrypted(begin)) {
      ++begin;
      continue;
    }
    int end = begin + 1;
    while (end < count && plan.row_encrypted(end)) ++end;
    const std::uint64_t bytes = pitch * static_cast<std::uint64_t>(end - begin);
    heap.mark_secure(base + pitch * static_cast<std::uint64_t>(begin), bytes);
    marked += bytes;
    begin = end;
  }
  return marked;
}

}  // namespace

std::vector<int> ModelLayout::plan_indices(const std::vector<LayerSpec>& specs) {
  std::vector<int> index(specs.size(), -1);
  int weight_idx = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].type != LayerSpec::Type::kPool) index[i] = weight_idx++;
  }
  return index;
}

ModelLayout::ModelLayout(const std::vector<LayerSpec>& specs,
                         const EncryptionPlan* plan, SecureHeap& heap) {
  if (specs.empty()) throw std::invalid_argument("ModelLayout: empty spec chain");
  plan_index_ = plan_indices(specs);
  // For fmap f (input of spec i), the consuming weight layer is the first
  // CONV/FC at index >= i; pools forward their input channels untouched.
  consumer_index_.assign(specs.size() + 1, -1);
  for (std::size_t i = specs.size(); i-- > 0;) {
    consumer_index_[i] = plan_index_[i] >= 0 ? plan_index_[i] : consumer_index_[i + 1];
  }
  if (plan) {
    const auto weight_layers = static_cast<std::size_t>(
        std::count_if(plan_index_.begin(), plan_index_.end(), [](int p) { return p >= 0; }));
    if (weight_layers != plan->layer_count()) {
      throw std::invalid_argument("ModelLayout: plan/spec weight-layer mismatch");
    }
  }

  // Places `units` line-aligned units of `unit_bytes` each and records the
  // buffer in the directory; the bump heap hands out ascending addresses, so
  // the directory stays sorted.
  auto place = [&](Region::Kind kind, std::size_t spec_index, int units,
                   std::uint64_t unit_bytes, std::string name) -> Region& {
    Region region;
    region.kind = kind;
    region.spec_index = spec_index;
    region.units = units;
    region.pitch = align_line(unit_bytes);
    const std::uint64_t size = region.pitch * static_cast<std::uint64_t>(units);
    region.begin = heap.malloc(size).addr;
    region.end = region.begin + size;
    region.name = std::move(name);
    total_bytes_ += size;
    directory_.push_back(std::move(region));
    return directory_.back();
  };

  // Allocate fmap buffers: directory_[i] is the input of layer i and
  // directory_[n] the network output. Channel pitch is line-aligned. FC
  // vectors are one dense "channel" of 4-byte features (32 per line).
  const std::size_t n = specs.size();
  directory_.reserve(2 * n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const LayerSpec& s = specs[i];
    if (s.type == LayerSpec::Type::kFc) {
      place(Region::Kind::kFmap, i, 1, static_cast<std::uint64_t>(s.in_features) * 4,
            s.name + ".in")
          .dense_fc = true;
    } else {
      place(Region::Kind::kFmap, i, s.in_channels,
            static_cast<std::uint64_t>(s.in_h) * static_cast<std::uint64_t>(s.in_w) * 4,
            s.name + ".in");
    }
  }
  const LayerSpec& last = specs.back();
  if (last.type == LayerSpec::Type::kFc) {
    place(Region::Kind::kFmap, n, 1, static_cast<std::uint64_t>(last.out_features) * 4,
          "output")
        .dense_fc = true;
  } else {
    place(Region::Kind::kFmap, n, last.out_channels,
          static_cast<std::uint64_t>(last.out_h()) * static_cast<std::uint64_t>(last.out_w()) * 4,
          "output");
  }

  // Mark encrypted fmap channels per the consumer rule.
  if (plan) {
    for (std::size_t i = 0; i < n; ++i) {
      if (consumer_index_[i] < 0) continue;
      const LayerPlan& lp = plan->layer(static_cast<std::size_t>(consumer_index_[i]));
      const Region& f = directory_[i];
      // Dense FC vectors are feature-granular (4 bytes per feature; the line
      // rule captures mixed lines), other fmaps channel-granular.
      secure_bytes_ +=
          f.dense_fc ? mark_encrypted_rows(heap, f.begin, 4, lp.rows, lp)
                     : mark_encrypted_rows(heap, f.begin, f.pitch,
                                           std::min(f.units, lp.rows), lp);
    }
    // The network output is always encrypted under SEAL.
    const Region& out = directory_[n];
    heap.mark_secure(out.begin, out.end - out.begin);
    secure_bytes_ += out.end - out.begin;
  }

  // Allocate weights (input-channel-major rows) and assemble addressing.
  layers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const LayerSpec& s = specs[i];
    LayerAddressing addressing;
    addressing.spec = s;
    addressing.ifmap_base = directory_[i].begin;
    addressing.ifmap_channel_pitch = directory_[i].pitch;
    addressing.ifmap_channels = directory_[i].units;
    addressing.ofmap_base = directory_[i + 1].begin;
    addressing.ofmap_channel_pitch = directory_[i + 1].pitch;
    addressing.ofmap_channels = directory_[i + 1].units;

    if (plan_index_[i] >= 0) {
      const int rows = s.weight_rows();
      const int row_payload = s.type == LayerSpec::Type::kConv
                                  ? s.out_channels * s.kernel * s.kernel * 4
                                  : s.out_features * 4;
      addressing.weight_row_bytes = static_cast<std::uint64_t>(row_payload);
      const Region& weights = place(Region::Kind::kWeights, i, rows,
                                    addressing.weight_row_bytes, s.name + ".weights");
      addressing.weight_base = weights.begin;
      addressing.weight_row_pitch = weights.pitch;

      if (plan) {
        const LayerPlan& lp = plan->layer(static_cast<std::size_t>(plan_index_[i]));
        secure_bytes_ += mark_encrypted_rows(heap, weights.begin, weights.pitch,
                                             std::min(rows, lp.rows), lp);
      }
    }
    layers_.push_back(std::move(addressing));
  }
}

const Region* ModelLayout::region_at(sim::Addr addr) const {
  auto it = std::upper_bound(
      directory_.begin(), directory_.end(), addr,
      [](sim::Addr a, const Region& region) { return a < region.begin; });
  if (it == directory_.begin()) return nullptr;
  --it;
  return addr < it->end ? &*it : nullptr;
}

int ModelLayout::plan_index(std::size_t spec_index) const {
  return spec_index < plan_index_.size() ? plan_index_[spec_index] : -1;
}

int ModelLayout::consumer_plan_index(std::size_t spec_index) const {
  return spec_index < consumer_index_.size() ? consumer_index_[spec_index] : -1;
}

}  // namespace sealdl::core
