// Trainable instances of the paper's three CNNs, and the one network name table.
//
// The builders accept a width divisor so that the security experiments
// (victim/substitute training in pure C++) run at laptop speed while keeping
// the exact layer *structure* — 13/17/33 CONV layers plus FC head — which is
// what SEAL's per-layer row ranking operates on. width_div=1 reproduces the
// full published channel counts.
#pragma once

#include <memory>
#include <string>

#include "models/layer_spec.hpp"
#include "nn/network.hpp"
#include "util/rng.hpp"

namespace sealdl::models {

struct BuildOptions {
  int classes = 10;
  int input_channels = 3;
  int input_hw = 16;   ///< square input resolution
  int width_div = 8;   ///< divide every published channel count by this
  std::uint64_t seed = 1;
};

/// VGG-16: 13 conv (2-2-3-3-3 blocks) + 3 FC. Max-pool follows each block
/// while the spatial size allows it.
std::unique_ptr<nn::Sequential> build_vgg16(const BuildOptions& options);

/// ResNet-18: 3x3 stem + stages [2,2,2,2] of basic blocks + GAP + FC
/// (CIFAR-style stem: stride-1 3x3, no stem max-pool).
std::unique_ptr<nn::Sequential> build_resnet18(const BuildOptions& options);

/// ResNet-34: stages [3,4,6,3].
std::unique_ptr<nn::Sequential> build_resnet34(const BuildOptions& options);

/// The accepted network names, as a diagnostic: "vgg16|resnet18|resnet34".
std::string network_names();

/// Paper-scale spec list of a named network. Throws std::invalid_argument
/// "unknown network <name> (vgg16|resnet18|resnet34)" for any other name, and
/// "input size <n> is too small for <name>: layer <layer> has an empty ..."
/// when `input_hw` leaves some layer without input or output.
std::vector<LayerSpec> network_specs(const std::string& name, int input_hw = 224);

/// Builds a named network; unknown names throw as network_specs does.
std::unique_ptr<nn::Sequential> build_model(const std::string& name,
                                            const BuildOptions& options);

}  // namespace sealdl::models
