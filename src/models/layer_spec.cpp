#include "models/layer_spec.hpp"

namespace sealdl::models {

namespace {

LayerSpec conv(std::string name, int in_ch, int out_ch, int hw, int kernel = 3,
               int stride = 1, int padding = 1) {
  LayerSpec s;
  s.type = LayerSpec::Type::kConv;
  s.name = std::move(name);
  s.in_channels = in_ch;
  s.out_channels = out_ch;
  s.in_h = s.in_w = hw;
  s.kernel = kernel;
  s.stride = stride;
  s.padding = padding;
  return s;
}

LayerSpec pool(std::string name, int channels, int hw, int window = 2) {
  LayerSpec s;
  s.type = LayerSpec::Type::kPool;
  s.name = std::move(name);
  s.in_channels = s.out_channels = channels;
  s.in_h = s.in_w = hw;
  s.kernel = window;
  s.stride = window;
  s.padding = 0;
  return s;
}

LayerSpec fc(std::string name, int in_features, int out_features) {
  LayerSpec s;
  s.type = LayerSpec::Type::kFc;
  s.name = std::move(name);
  s.in_features = in_features;
  s.out_features = out_features;
  return s;
}

}  // namespace

std::uint64_t LayerSpec::macs() const {
  switch (type) {
    case Type::kConv:
      return static_cast<std::uint64_t>(out_channels) * static_cast<std::uint64_t>(in_channels) *
             static_cast<std::uint64_t>(kernel) * static_cast<std::uint64_t>(kernel) *
             static_cast<std::uint64_t>(out_h()) * static_cast<std::uint64_t>(out_w());
    case Type::kPool:
      // Comparisons, not MACs, but the same order of per-element work.
      return static_cast<std::uint64_t>(in_channels) * static_cast<std::uint64_t>(out_h()) *
             static_cast<std::uint64_t>(out_w()) * static_cast<std::uint64_t>(kernel) *
             static_cast<std::uint64_t>(kernel);
    case Type::kFc:
      return static_cast<std::uint64_t>(in_features) * static_cast<std::uint64_t>(out_features);
  }
  return 0;
}

std::uint64_t LayerSpec::weight_bytes() const {
  switch (type) {
    case Type::kConv:
      return static_cast<std::uint64_t>(out_channels) * static_cast<std::uint64_t>(in_channels) *
             static_cast<std::uint64_t>(kernel) * static_cast<std::uint64_t>(kernel) * 4;
    case Type::kPool:
      return 0;
    case Type::kFc:
      return static_cast<std::uint64_t>(in_features) * static_cast<std::uint64_t>(out_features) * 4;
  }
  return 0;
}

std::uint64_t LayerSpec::input_bytes() const {
  if (type == Type::kFc) return static_cast<std::uint64_t>(in_features) * 4;
  return static_cast<std::uint64_t>(in_channels) * static_cast<std::uint64_t>(in_h) *
         static_cast<std::uint64_t>(in_w) * 4;
}

std::uint64_t LayerSpec::output_bytes() const {
  if (type == Type::kFc) return static_cast<std::uint64_t>(out_features) * 4;
  return static_cast<std::uint64_t>(out_channels) * static_cast<std::uint64_t>(out_h()) *
         static_cast<std::uint64_t>(out_w()) * 4;
}

std::vector<LayerSpec> vgg16_specs(int input_hw) {
  std::vector<LayerSpec> out;
  int hw = input_hw;
  const int widths[5] = {64, 128, 256, 512, 512};
  const int convs_per_block[5] = {2, 2, 3, 3, 3};
  int in_ch = 3;
  for (int block = 0; block < 5; ++block) {
    for (int i = 0; i < convs_per_block[block]; ++i) {
      out.push_back(conv("conv" + std::to_string(block + 1) + "_" + std::to_string(i + 1),
                         in_ch, widths[block], hw));
      in_ch = widths[block];
    }
    out.push_back(pool("pool" + std::to_string(block + 1), in_ch, hw));
    hw /= 2;
  }
  out.push_back(fc("fc6", in_ch * hw * hw, 4096));
  out.push_back(fc("fc7", 4096, 4096));
  out.push_back(fc("fc8", 4096, 1000));
  return out;
}

namespace {

// Appends one ResNet basic block (two 3x3 convs); `hw` is the block's input
// spatial size, `stride` applies to the first conv (and the projection).
// Without a projection the block is an identity block: its second conv
// declares the skip from the first conv's input.
void append_basic_block(std::vector<LayerSpec>& out, const std::string& prefix,
                        int in_ch, int out_ch, int hw, int stride) {
  const int entry = static_cast<int>(out.size());
  out.push_back(conv(prefix + "_a", in_ch, out_ch, hw, 3, stride, 1));
  const int mid_hw = (hw + 2 - 3) / stride + 1;
  out.push_back(conv(prefix + "_b", out_ch, out_ch, mid_hw, 3, 1, 1));
  if (stride != 1 || in_ch != out_ch) {
    out.push_back(conv(prefix + "_proj", in_ch, out_ch, hw, 1, stride, 0));
  } else {
    out.back().skip_from = entry;
  }
}

std::vector<LayerSpec> resnet_specs(const int blocks_per_stage[4], int input_hw) {
  std::vector<LayerSpec> out;
  int hw = input_hw;
  out.push_back(conv("conv1", 3, 64, hw, 7, 2, 3));
  hw = (hw + 6 - 7) / 2 + 1;
  out.push_back(pool("maxpool", 64, hw, 2));
  hw /= 2;
  const int widths[4] = {64, 128, 256, 512};
  int in_ch = 64;
  for (int stage = 0; stage < 4; ++stage) {
    for (int b = 0; b < blocks_per_stage[stage]; ++b) {
      const int stride = (stage > 0 && b == 0) ? 2 : 1;
      append_basic_block(out,
                         "stage" + std::to_string(stage + 1) + "_block" + std::to_string(b + 1),
                         in_ch, widths[stage], hw, stride);
      if (stride == 2) hw = (hw + 2 - 3) / 2 + 1;
      in_ch = widths[stage];
    }
  }
  out.push_back(fc("fc", 512, 1000));
  return out;
}

}  // namespace

std::vector<LayerSpec> resnet18_specs(int input_hw) {
  const int blocks[4] = {2, 2, 2, 2};
  return resnet_specs(blocks, input_hw);
}

std::vector<LayerSpec> resnet34_specs(int input_hw) {
  const int blocks[4] = {3, 4, 6, 3};
  return resnet_specs(blocks, input_hw);
}

std::vector<LayerSpec> fig5_conv_layers() {
  // "the number of input and output channels is 64/128/256/512" — the VGG
  // body layers at their native spatial sizes (224-input VGG-16).
  return {
      conv("CONV-1", 64, 64, 224),
      conv("CONV-2", 128, 128, 112),
      conv("CONV-3", 256, 256, 56),
      conv("CONV-4", 512, 512, 28),
  };
}

std::vector<LayerSpec> fig6_pool_layers() {
  return {
      pool("POOL-1", 64, 224),
      pool("POOL-2", 128, 112),
      pool("POOL-3", 256, 56),
      pool("POOL-5", 512, 14),
  };
}

}  // namespace sealdl::models
