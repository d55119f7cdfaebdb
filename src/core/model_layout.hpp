// Placement of a network's weights and feature maps into the simulated
// physical address space, with per-row / per-channel secure marking.
//
// Layout choices that make selective encryption range-based:
//  * conv weights are stored input-channel-major (kernel row r contiguous),
//    so an encrypted row is one address range;
//  * feature maps are channel-major with each channel padded to a cache line,
//    so an encrypted channel is one line-aligned range.
//
// Feature-map encryption follows the consumer rule (§III-A): the channels of
// the fmap feeding weight layer L are encrypted exactly where L's kernel rows
// are. POOL layers pass channel markings through; the final network output is
// fully encrypted (the paper's example encrypts Z).
//
// The layout is the one address map: while it allocates it records a sorted
// directory of every buffer it places, which the timing runner, the taint
// auditor and the analyzer's checkers all read instead of re-deriving it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/encryption_plan.hpp"
#include "core/secure_heap.hpp"
#include "models/layer_spec.hpp"

namespace sealdl::core {

struct LayerAddressing {
  models::LayerSpec spec;

  sim::Addr weight_base = 0;
  std::uint64_t weight_row_pitch = 0;  ///< line-aligned bytes per kernel row
  std::uint64_t weight_row_bytes = 0;  ///< payload bytes per kernel row

  sim::Addr ifmap_base = 0;
  std::uint64_t ifmap_channel_pitch = 0;
  sim::Addr ofmap_base = 0;
  std::uint64_t ofmap_channel_pitch = 0;
  int ifmap_channels = 0;
  int ofmap_channels = 0;
};

/// One directory entry: a contiguous buffer the layout placed — a layer's
/// weight array, a layer's input feature map, or the network output.
struct Region {
  enum class Kind : std::uint8_t { kWeights, kFmap };

  Kind kind = Kind::kWeights;
  sim::Addr begin = 0;
  sim::Addr end = 0;           ///< half-open
  /// Owning spec: for weights, the layer; for fmaps, the spec the buffer
  /// feeds (specs.size() marks the network-output buffer).
  std::size_t spec_index = 0;
  std::uint64_t pitch = 0;     ///< bytes per row (weights) / channel (fmaps)
  int units = 0;               ///< row / channel count
  /// FC input vectors are stored densely (4 bytes per feature, no per-channel
  /// line padding); alignment rules exempt them.
  bool dense_fc = false;
  std::string name;            ///< e.g. "conv3_1.weights", "fc6.in", "output"
};

class ModelLayout {
 public:
  /// Lays `specs` out on `heap`. When `plan` is non-null (SEAL configs) its
  /// per-layer row sets drive the secure-range marking; the plan must have
  /// one entry per CONV/FC spec (POOLs excluded). When null, no ranges are
  /// marked (Baseline / full-encryption configs ignore the map anyway).
  /// Throws std::invalid_argument on an empty spec chain or a plan of the
  /// wrong length.
  ModelLayout(const std::vector<models::LayerSpec>& specs,
              const EncryptionPlan* plan, SecureHeap& heap);

  [[nodiscard]] const std::vector<LayerAddressing>& layers() const { return layers_; }

  /// Every placed buffer, sorted by address: one weights entry per CONV/FC
  /// spec, one input-fmap entry per spec, and the network output. Allocation
  /// order is address order, so the entries tile [first.begin, last.end).
  [[nodiscard]] const std::vector<Region>& directory() const { return directory_; }

  /// Directory entry containing `addr`, or nullptr. O(log n).
  [[nodiscard]] const Region* region_at(sim::Addr addr) const;

  /// Plan layer of spec `spec_index` (the plan covers CONV/FC specs in
  /// order), or -1 for a POOL or an out-of-range index.
  [[nodiscard]] int plan_index(std::size_t spec_index) const;

  /// Plan layer of the first weight layer at spec index >= `spec_index` —
  /// the consumer of that spec's input fmap — or -1 if none follows.
  [[nodiscard]] int consumer_plan_index(std::size_t spec_index) const;

  /// The spec -> plan-layer index without a layout, for callers that must
  /// address a plan before laying it out (the analyzer's plan injections).
  [[nodiscard]] static std::vector<int> plan_indices(
      const std::vector<models::LayerSpec>& specs);

  /// Bytes of weights + fmaps that were marked secure.
  [[nodiscard]] std::uint64_t secure_bytes() const { return secure_bytes_; }
  /// Total bytes placed.
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

  /// Mutable access to the directory. Exists for the analyzer's
  /// seeded-violation self-tests (sealdl-check --inject layout-untagged /
  /// layout-overlap), which corrupt the model to prove the model-vs-map
  /// rules fire; production code never mutates a built layout's directory.
  [[nodiscard]] std::vector<Region>& mutable_directory() { return directory_; }

 private:
  std::vector<LayerAddressing> layers_;
  std::vector<Region> directory_;
  std::vector<int> plan_index_;      ///< per spec
  std::vector<int> consumer_index_;  ///< per spec, plus -1 for the output
  std::uint64_t secure_bytes_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace sealdl::core
