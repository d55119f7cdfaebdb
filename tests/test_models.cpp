// Model builders and full-scale layer specs: structure, shapes, and totals.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/weight_layers.hpp"
#include "models/build.hpp"
#include "models/layer_spec.hpp"
#include "nn/serialize.hpp"

namespace sealdl::models {
namespace {

int count_type(const std::vector<LayerSpec>& specs, LayerSpec::Type type) {
  int n = 0;
  for (const auto& s : specs) n += s.type == type ? 1 : 0;
  return n;
}

TEST(LayerSpecs, Vgg16HasThePaperLayerCounts) {
  const auto specs = vgg16_specs();
  // "13/16 for VGG-16" CONV layers (§III-A) + 5 pools + 3 FC.
  EXPECT_EQ(count_type(specs, LayerSpec::Type::kConv), 13);
  EXPECT_EQ(count_type(specs, LayerSpec::Type::kPool), 5);
  EXPECT_EQ(count_type(specs, LayerSpec::Type::kFc), 3);
}

TEST(LayerSpecs, Resnet18HasSeventeenConvPlusFc) {
  const auto specs = resnet18_specs();
  // "17/18 for ResNet-18": 1 stem + 16 block convs (+3 projections that the
  // paper's count excludes) and 1 FC.
  int main_convs = 0;
  for (const auto& s : specs) {
    if (s.type == LayerSpec::Type::kConv &&
        s.name.find("proj") == std::string::npos) {
      ++main_convs;
    }
  }
  EXPECT_EQ(main_convs, 17);
  EXPECT_EQ(count_type(specs, LayerSpec::Type::kFc), 1);
}

TEST(LayerSpecs, Resnet34HasThirtyThreeConvPlusFc) {
  const auto specs = resnet34_specs();
  int main_convs = 0;
  for (const auto& s : specs) {
    if (s.type == LayerSpec::Type::kConv &&
        s.name.find("proj") == std::string::npos) {
      ++main_convs;
    }
  }
  EXPECT_EQ(main_convs, 33);  // "33/34 for ResNet-34"
}

TEST(LayerSpecs, Vgg16ShapesChainCorrectly) {
  const auto specs = vgg16_specs(224);
  // Walk CONV/POOL chain checking in/out consistency.
  int hw = 224, channels = 3;
  for (const auto& s : specs) {
    if (s.type == LayerSpec::Type::kFc) break;
    EXPECT_EQ(s.in_channels, channels) << s.name;
    EXPECT_EQ(s.in_h, hw) << s.name;
    channels = s.out_channels;
    hw = s.out_h();
  }
  EXPECT_EQ(hw, 7);        // 224 / 2^5
  EXPECT_EQ(channels, 512);
}

TEST(LayerSpecs, Vgg16MacTotalMatchesPublishedScale) {
  std::uint64_t total = 0;
  for (const auto& s : vgg16_specs(224)) {
    if (s.type != LayerSpec::Type::kPool) total += s.macs();
  }
  // VGG-16 is ~15.5 GMACs at 224x224.
  EXPECT_GT(total, 14'000'000'000ULL);
  EXPECT_LT(total, 16'500'000'000ULL);
}

TEST(LayerSpecs, Resnet18MacTotalMatchesPublishedScale) {
  std::uint64_t total = 0;
  for (const auto& s : resnet18_specs(224)) {
    if (s.type != LayerSpec::Type::kPool) total += s.macs();
  }
  // ResNet-18 is ~1.8 GMACs.
  EXPECT_GT(total, 1'500'000'000ULL);
  EXPECT_LT(total, 2'200'000'000ULL);
}

TEST(LayerSpecs, WeightBytesOfVgg16) {
  std::uint64_t total = 0;
  for (const auto& s : vgg16_specs(224)) total += s.weight_bytes();
  // ~138M params * 4B ~= 553 MB.
  EXPECT_GT(total, 500'000'000ULL);
  EXPECT_LT(total, 600'000'000ULL);
}

TEST(LayerSpecs, Fig5And6LayersMatchThePaperChannels) {
  const auto convs = fig5_conv_layers();
  ASSERT_EQ(convs.size(), 4u);
  EXPECT_EQ(convs[0].in_channels, 64);
  EXPECT_EQ(convs[1].in_channels, 128);
  EXPECT_EQ(convs[2].in_channels, 256);
  EXPECT_EQ(convs[3].in_channels, 512);
  const auto pools = fig6_pool_layers();
  ASSERT_EQ(pools.size(), 4u);
  EXPECT_EQ(pools.back().name, "POOL-5");
}

// ------------------------------------------------------ trainable builders ---

BuildOptions tiny() {
  BuildOptions options;
  options.input_hw = 16;
  options.width_div = 16;
  return options;
}

TEST(Build, Vgg16HasThirteenConvThreeFc) {
  auto model = build_vgg16(tiny());
  const auto layers = core::collect_weight_layers(*model);
  int convs = 0, fcs = 0;
  for (const auto& l : layers) (l.is_conv ? convs : fcs)++;
  EXPECT_EQ(convs, 13);
  EXPECT_EQ(fcs, 3);
}

TEST(Build, Resnet18WeightLayerCount) {
  auto model = build_resnet18(tiny());
  const auto layers = core::collect_weight_layers(*model);
  // stem + 16 block convs + projections + fc. With width_div all stages share
  // the minimum width, so only stride-2 stage heads get projections.
  int convs = 0, fcs = 0;
  for (const auto& l : layers) (l.is_conv ? convs : fcs)++;
  EXPECT_GE(convs, 17);
  EXPECT_EQ(fcs, 1);
}

TEST(Build, Resnet34DeeperThanResnet18) {
  auto r18 = build_resnet18(tiny());
  auto r34 = build_resnet34(tiny());
  EXPECT_GT(core::collect_weight_layers(*r34).size(),
            core::collect_weight_layers(*r18).size());
}

class BuildForward : public ::testing::TestWithParam<const char*> {};

TEST_P(BuildForward, ProducesClassLogitsAndTrains) {
  auto model = models::build_model(GetParam(), tiny());
  nn::Tensor x({2, 3, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = 0.01f * static_cast<float>(i % 97);
  nn::Tensor logits = model->forward(x, /*train=*/false);
  EXPECT_EQ(logits.shape(), (std::vector<int>{2, 10}));
  // One backward pass must run without shape errors.
  nn::Tensor y = model->forward(x, /*train=*/true);
  model->backward(y.zeros_like());
}

INSTANTIATE_TEST_SUITE_P(Models, BuildForward,
                         ::testing::Values("vgg16", "resnet18", "resnet34"));

TEST(Build, UnknownNameThrows) {
  EXPECT_THROW(build_model("alexnet", tiny()), std::invalid_argument);
}

TEST(NetworkTable, ResolvesEveryNameToItsSpecs) {
  EXPECT_EQ(network_names(), "vgg16|resnet18|resnet34");
  EXPECT_EQ(network_specs("vgg16", 64).size(), vgg16_specs(64).size());
  EXPECT_EQ(network_specs("resnet18", 64).size(), resnet18_specs(64).size());
  EXPECT_EQ(network_specs("resnet34").size(), resnet34_specs().size());
}

TEST(NetworkTable, UnknownNameThrowsNamingTheAcceptedSet) {
  try {
    (void)network_specs("vgg19", 224);
    FAIL() << "vgg19 resolved";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "unknown network vgg19 (vgg16|resnet18|resnet34)");
  }
}

// An input that shrinks a layer to nothing is refused up front, naming the
// size and the first empty layer, instead of failing later in the layout.
TEST(NetworkTable, TooSmallInputNamesTheSizeAndTheEmptyLayer) {
  const auto message = [](const std::string& name, int input_hw) -> std::string {
    try {
      (void)network_specs(name, input_hw);
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "accepted";
  };
  EXPECT_EQ(message("vgg16", 1),
            "input size 1 is too small for vgg16: layer conv2_1 has an empty input");
  EXPECT_EQ(message("vgg16", 0),
            "input size 0 is too small for vgg16: layer conv1_1 has an empty input");
  EXPECT_EQ(message("vgg16", 16),
            "input size 16 is too small for vgg16: layer fc6 has an empty input");
  EXPECT_EQ(message("resnet34", -3),
            "input size -3 is too small for resnet34: layer conv1 has an empty input");
  EXPECT_EQ(message("vgg16", 32), "accepted");
  EXPECT_EQ(message("resnet18", 32), "accepted");
}

TEST(Build, WidthDivScalesParameterCount) {
  BuildOptions wide = tiny();
  wide.width_div = 8;
  auto narrow = build_vgg16(tiny());
  auto wider = build_vgg16(wide);
  EXPECT_GT(nn::parameter_count(*wider), nn::parameter_count(*narrow));
}

}  // namespace
}  // namespace sealdl::models
