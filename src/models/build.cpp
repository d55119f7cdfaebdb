#include "models/build.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/basic_layers.hpp"
#include "nn/conv2d.hpp"

namespace sealdl::models {

using nn::BatchNorm2d;
using nn::Conv2d;
using nn::Flatten;
using nn::GlobalAvgPool;
using nn::LayerPtr;
using nn::Linear;
using nn::MaxPool2d;
using nn::ReLU;
using nn::ResidualBlock;
using nn::Sequential;

namespace {

int scaled(int channels, int width_div) { return std::max(4, channels / width_div); }

/// The one name -> network table.
struct NetworkEntry {
  const char* name;
  std::vector<LayerSpec> (*specs)(int input_hw);
  std::unique_ptr<Sequential> (*build)(const BuildOptions& options);
};

constexpr NetworkEntry kNetworks[] = {
    {"vgg16", vgg16_specs, build_vgg16},
    {"resnet18", resnet18_specs, build_resnet18},
    {"resnet34", resnet34_specs, build_resnet34},
};

const NetworkEntry& find_network(const std::string& name) {
  for (const NetworkEntry& entry : kNetworks) {
    if (name == entry.name) return entry;
  }
  throw std::invalid_argument("unknown network " + name + " (" + network_names() + ")");
}

}  // namespace

std::unique_ptr<Sequential> build_vgg16(const BuildOptions& options) {
  util::Rng rng(options.seed);
  auto net = std::make_unique<Sequential>();
  const int widths[5] = {64, 128, 256, 512, 512};
  const int convs_per_block[5] = {2, 2, 3, 3, 3};
  int in_ch = options.input_channels;
  int hw = options.input_hw;
  for (int block = 0; block < 5; ++block) {
    const int out_ch = scaled(widths[block], options.width_div);
    for (int i = 0; i < convs_per_block[block]; ++i) {
      net->add(std::make_unique<Conv2d>(in_ch, out_ch, 3, 1, 1, true, rng));
      // Batch norm keeps the 13-conv stack trainable from scratch (the
      // common CIFAR-VGG recipe); it adds no kernel rows, so the SE plan is
      // unaffected.
      net->add(std::make_unique<BatchNorm2d>(out_ch));
      net->add(std::make_unique<ReLU>());
      in_ch = out_ch;
    }
    if (hw >= 2 && hw % 2 == 0) {
      net->add(std::make_unique<MaxPool2d>(2));
      hw /= 2;
    }
  }
  net->add(std::make_unique<Flatten>());
  const int features = in_ch * hw * hw;
  const int hidden = scaled(4096, options.width_div * 8);
  net->add(std::make_unique<Linear>(features, hidden, true, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<Linear>(hidden, hidden, true, rng));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<Linear>(hidden, options.classes, true, rng));
  return net;
}

namespace {

LayerPtr basic_block(int in_ch, int out_ch, int stride, util::Rng& rng) {
  auto main_path = std::make_unique<Sequential>();
  main_path->add(std::make_unique<Conv2d>(in_ch, out_ch, 3, stride, 1, false, rng));
  main_path->add(std::make_unique<BatchNorm2d>(out_ch));
  main_path->add(std::make_unique<ReLU>());
  main_path->add(std::make_unique<Conv2d>(out_ch, out_ch, 3, 1, 1, false, rng));
  main_path->add(std::make_unique<BatchNorm2d>(out_ch));

  LayerPtr shortcut;
  if (stride != 1 || in_ch != out_ch) {
    auto proj = std::make_unique<Sequential>();
    proj->add(std::make_unique<Conv2d>(in_ch, out_ch, 1, stride, 0, false, rng));
    proj->add(std::make_unique<BatchNorm2d>(out_ch));
    shortcut = std::move(proj);
  }
  return std::make_unique<ResidualBlock>(std::move(main_path), std::move(shortcut));
}

std::unique_ptr<Sequential> build_resnet(const int blocks_per_stage[4],
                                         const BuildOptions& options) {
  util::Rng rng(options.seed);
  auto net = std::make_unique<Sequential>();
  const int stem = scaled(64, options.width_div);
  net->add(std::make_unique<Conv2d>(options.input_channels, stem, 3, 1, 1, false, rng));
  net->add(std::make_unique<BatchNorm2d>(stem));
  net->add(std::make_unique<ReLU>());

  const int widths[4] = {64, 128, 256, 512};
  int in_ch = stem;
  int hw = options.input_hw;
  for (int stage = 0; stage < 4; ++stage) {
    const int out_ch = scaled(widths[stage], options.width_div);
    for (int b = 0; b < blocks_per_stage[stage]; ++b) {
      // Downsample at the head of stages 2..4, but only while spatial size
      // permits (small-input variants stop shrinking at 2x2).
      int stride = (stage > 0 && b == 0 && hw >= 4) ? 2 : 1;
      net->add(basic_block(in_ch, out_ch, stride, rng));
      if (stride == 2) hw /= 2;
      in_ch = out_ch;
    }
  }
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Flatten>());
  net->add(std::make_unique<Linear>(in_ch, options.classes, true, rng));
  return net;
}

}  // namespace

std::unique_ptr<Sequential> build_resnet18(const BuildOptions& options) {
  const int blocks[4] = {2, 2, 2, 2};
  return build_resnet(blocks, options);
}

std::unique_ptr<Sequential> build_resnet34(const BuildOptions& options) {
  const int blocks[4] = {3, 4, 6, 3};
  return build_resnet(blocks, options);
}

std::string network_names() {
  std::string names;
  for (const NetworkEntry& entry : kNetworks) {
    if (!names.empty()) names += '|';
    names += entry.name;
  }
  return names;
}

std::vector<LayerSpec> network_specs(const std::string& name, int input_hw) {
  std::vector<LayerSpec> specs = find_network(name).specs(input_hw);
  // A too-small input shrinks some layer to nothing, which the layout would
  // only report later as a zero-size allocation.
  for (const LayerSpec& spec : specs) {
    const bool fc = spec.type == LayerSpec::Type::kFc;
    const char* empty = nullptr;
    if (fc ? spec.in_features < 1 : spec.in_h < 1 || spec.in_w < 1) {
      empty = "input";
    } else if (fc ? spec.out_features < 1 : spec.out_h() < 1 || spec.out_w() < 1) {
      empty = "output";
    }
    if (empty) {
      throw std::invalid_argument("input size " + std::to_string(input_hw) +
                                  " is too small for " + name + ": layer " +
                                  spec.name + " has an empty " + empty);
    }
  }
  return specs;
}

std::unique_ptr<Sequential> build_model(const std::string& name,
                                        const BuildOptions& options) {
  return find_network(name).build(options);
}

}  // namespace sealdl::models
