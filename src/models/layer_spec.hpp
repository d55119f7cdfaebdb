// Architecture descriptions used by the performance workloads.
//
// A LayerSpec captures the tensor geometry of one network layer at full
// (paper) scale; the workload generators (src/workload) turn specs into
// memory-access traces for the cycle simulator. These are decoupled from the
// trainable nn:: models so that timing experiments can use the exact
// VGG-16 / ResNet-18 / ResNet-34 dimensions while security experiments use
// width-scaled trainable instances.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sealdl::models {

struct LayerSpec {
  enum class Type { kConv, kPool, kFc };

  Type type = Type::kConv;
  std::string name;

  // Convolution / pooling geometry (NCHW, square kernels).
  int in_channels = 0;
  int out_channels = 0;
  int in_h = 0;
  int in_w = 0;
  int kernel = 3;
  int stride = 1;
  int padding = 1;

  // Fully connected geometry.
  int in_features = 0;
  int out_features = 0;

  /// Declared identity skip: the input fmap of spec `skip_from` (an absolute
  /// index into the same spec list) is added to this layer's output before
  /// the next weight layer consumes it. Set only on the conv that closes a
  /// ResNet identity block; -1 = no skip.
  int skip_from = -1;

  [[nodiscard]] int out_h() const { return (in_h + 2 * padding - kernel) / stride + 1; }
  [[nodiscard]] int out_w() const { return (in_w + 2 * padding - kernel) / stride + 1; }

  /// Kernel rows of a weight layer: input channels (CONV) or input features
  /// (FC); 0 for POOL. Row r only ever meets input-fmap channel r (§III-A),
  /// so this is also the unit count of an encryption plan layer.
  [[nodiscard]] int weight_rows() const {
    return type == Type::kConv ? in_channels : type == Type::kFc ? in_features : 0;
  }

  /// Multiply-accumulate count of the layer (for IPC/latency scaling).
  [[nodiscard]] std::uint64_t macs() const;

  /// Weight bytes (float32).
  [[nodiscard]] std::uint64_t weight_bytes() const;

  /// Input / output feature-map bytes (float32, batch 1).
  [[nodiscard]] std::uint64_t input_bytes() const;
  [[nodiscard]] std::uint64_t output_bytes() const;
};

/// VGG-16 (Simonyan & Zisserman) at 224x224x3: 13 CONV + 5 POOL + 3 FC.
std::vector<LayerSpec> vgg16_specs(int input_hw = 224);

/// ResNet-18 at 224x224x3 (7x7 stem, 4 stages of basic blocks, FC head).
std::vector<LayerSpec> resnet18_specs(int input_hw = 224);

/// ResNet-34 at 224x224x3.
std::vector<LayerSpec> resnet34_specs(int input_hw = 224);

/// The four "typical CONV layers in VGG" of paper Fig. 5 — channel counts
/// 64/128/256/512 (CONV-1..CONV-4).
std::vector<LayerSpec> fig5_conv_layers();

/// The POOL layers of paper Fig. 6 (POOL-1, POOL-2, POOL-3, POOL-5 of VGG).
std::vector<LayerSpec> fig6_pool_layers();

}  // namespace sealdl::models
