// Attack machinery: snooper reconstruction, substitute construction,
// oracle labelling, Jacobian augmentation, I-FGSM.
#include <gtest/gtest.h>

#include <memory>

#include "attack/bus_snooper.hpp"
#include "attack/ifgsm.hpp"
#include "attack/jacobian_aug.hpp"
#include "attack/substitute.hpp"
#include "core/encryption_plan.hpp"
#include "models/build.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "sim/functional_memory.hpp"

namespace sealdl::attack {
namespace {

crypto::Key128 test_key() {
  crypto::Key128 key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i * 13 + 5);
  return key;
}

// ------------------------------------------------------------- BusSnooper ---

TEST(BusSnooper, ReconstructsPlaintextExactly) {
  sim::FunctionalMemory memory(sim::resolve_scheme("baseline"), nullptr,
                               test_key());
  BusSnooper snooper;
  memory.set_probe(&snooper);
  std::vector<std::uint8_t> secret(777);
  for (std::size_t i = 0; i < secret.size(); ++i) secret[i] = static_cast<std::uint8_t>(i % 251);
  memory.write(0x1000, secret);
  EXPECT_EQ(snooper.extract(0x1000, secret.size()), secret);
  EXPECT_TRUE(snooper.fully_observed(0x1000, secret.size()));
  EXPECT_FALSE(snooper.saw_ciphertext(0x1000, secret.size()));
}

TEST(BusSnooper, EncryptedLinesYieldGarbage) {
  sim::FunctionalMemory memory(sim::resolve_scheme("direct"), nullptr,
                               test_key());
  BusSnooper snooper;
  memory.set_probe(&snooper);
  std::vector<std::uint8_t> secret(256, 0x42);
  memory.write(0x2000, secret);
  const auto seen = snooper.extract(0x2000, secret.size());
  EXPECT_NE(seen, secret);
  EXPECT_TRUE(snooper.saw_ciphertext(0x2000, secret.size()));
}

TEST(BusSnooper, UnobservedRangesReadZeroAndReportCoverage) {
  BusSnooper snooper;
  const auto bytes = snooper.extract(0x5000, 64);
  EXPECT_EQ(bytes, std::vector<std::uint8_t>(64, 0));
  EXPECT_FALSE(snooper.fully_observed(0x5000, 64));
  EXPECT_EQ(snooper.transfers(), 0u);
}

TEST(BusSnooper, SelectiveMixRecoversOnlyPlaintextLines) {
  sim::SecureMap map;
  map.add_range(0x3000, 128);  // first line secure, second plain
  sim::FunctionalMemory memory(sim::resolve_scheme("seal-d"), &map,
                               test_key());
  BusSnooper snooper;
  memory.set_probe(&snooper);
  std::vector<std::uint8_t> secret(256);
  for (std::size_t i = 0; i < secret.size(); ++i) secret[i] = static_cast<std::uint8_t>(i);
  memory.write(0x3000, secret);
  const auto seen = snooper.extract(0x3000, 256);
  EXPECT_FALSE(std::equal(seen.begin(), seen.begin() + 128, secret.begin()));
  EXPECT_TRUE(std::equal(seen.begin() + 128, seen.end(), secret.begin() + 128));
}

TEST(BusSnooper, ClearResetsState) {
  sim::FunctionalMemory memory(sim::resolve_scheme("baseline"), nullptr,
                               test_key());
  BusSnooper snooper;
  memory.set_probe(&snooper);
  memory.write(0x1000, std::vector<std::uint8_t>(128, 1));
  EXPECT_GT(snooper.transfers(), 0u);
  snooper.clear();
  EXPECT_EQ(snooper.transfers(), 0u);
  EXPECT_FALSE(snooper.fully_observed(0x1000, 128));
}

// ------------------------------------------------------------- substitutes ---

models::BuildOptions tiny_build() {
  models::BuildOptions build;
  build.input_hw = 8;
  build.width_div = 16;
  return build;
}

ModelFactory tiny_factory() {
  return [] { return models::build_vgg16(tiny_build()); };
}

AdversaryCorpus tiny_corpus(nn::Layer& oracle) {
  nn::DatasetConfig config;
  config.height = config.width = 8;
  config.samples = 100;
  nn::SyntheticDataset data(config);
  std::vector<int> idx(64);
  for (int i = 0; i < 64; ++i) idx[static_cast<std::size_t>(i)] = i;
  AdversaryCorpus corpus;
  corpus.images = data.batch(idx);
  corpus.labels = query_oracle(oracle, corpus.images);
  return corpus;
}

TEST(Substitute, WhiteBoxIsExactCopy) {
  auto victim = tiny_factory()();
  auto white = make_white_box(tiny_factory(), *victim);
  const auto a = nn::serialize_params(*victim);
  const auto b = nn::serialize_params(*white);
  EXPECT_EQ(a, b);
}

TEST(Substitute, OracleLabelsMatchVictimPredictions) {
  auto victim = tiny_factory()();
  nn::DatasetConfig config;
  config.height = config.width = 8;
  config.samples = 20;
  nn::SyntheticDataset data(config);
  std::vector<int> idx{0, 1, 2, 3, 4};
  const nn::Tensor images = data.batch(idx);
  const auto labels = query_oracle(*victim, images);
  const auto direct = nn::predict(victim->forward(images, false));
  EXPECT_EQ(labels, direct);
}

TEST(Substitute, SealSubstituteKeepsPlaintextRows) {
  auto victim = tiny_factory()();
  core::PlanOptions options;
  options.encryption_ratio = 0.5;
  const auto plan = core::EncryptionPlan::from_model(*victim, options);
  auto corpus = tiny_corpus(*victim);
  nn::TrainOptions train;
  train.epochs = 0;  // construction only: no fine-tuning
  auto substitute = make_seal_substitute(tiny_factory(), *victim, plan, corpus,
                                         train, /*freeze_known=*/false);

  const auto victim_layers = core::collect_weight_layers(*victim);
  const auto sub_layers = core::collect_weight_layers(*substitute);
  ASSERT_EQ(victim_layers.size(), sub_layers.size());
  for (std::size_t li = 0; li < victim_layers.size(); ++li) {
    const auto& lp = plan.layer(li);
    const auto& vic = victim_layers[li];
    const auto& sub = sub_layers[li];
    const int cell = vic.weights_per_cell;
    for (int oc = 0; oc < vic.cols && oc < 2; ++oc) {
      for (int ic = 0; ic < vic.rows; ++ic) {
        std::size_t idx;
        if (vic.is_conv) {
          idx = (static_cast<std::size_t>(oc) * static_cast<std::size_t>(vic.rows) +
                 static_cast<std::size_t>(ic)) * static_cast<std::size_t>(cell);
        } else {
          idx = static_cast<std::size_t>(oc) * static_cast<std::size_t>(vic.rows) +
                static_cast<std::size_t>(ic);
        }
        if (lp.row_encrypted(ic)) {
          // Overwhelmingly likely to differ (fresh normal draw).
          EXPECT_NE(vic.weight->value[idx], sub.weight->value[idx])
              << "layer " << li << " row " << ic;
        } else {
          EXPECT_EQ(vic.weight->value[idx], sub.weight->value[idx])
              << "layer " << li << " row " << ic;
        }
      }
    }
  }
}

TEST(Substitute, FrozenVariantDoesNotTouchKnownRows) {
  auto victim = tiny_factory()();
  core::PlanOptions options;
  options.encryption_ratio = 0.5;
  options.full_head_convs = 0;
  options.full_tail_convs = 0;
  options.full_tail_fcs = 0;
  const auto plan = core::EncryptionPlan::from_model(*victim, options);
  auto corpus = tiny_corpus(*victim);
  nn::TrainOptions train;
  train.epochs = 2;
  train.sgd.lr = 0.05f;
  auto substitute = make_seal_substitute(tiny_factory(), *victim, plan, corpus,
                                         train, /*freeze_known=*/true);
  const auto victim_layers = core::collect_weight_layers(*victim);
  const auto sub_layers = core::collect_weight_layers(*substitute);
  for (std::size_t li = 0; li < victim_layers.size(); ++li) {
    const auto& lp = plan.layer(li);
    const auto& vic = victim_layers[li];
    const auto& sub = sub_layers[li];
    const int cell = vic.weights_per_cell;
    for (int ic = 0; ic < vic.rows; ++ic) {
      if (lp.row_encrypted(ic)) continue;
      // Known row: frozen through training => still equal to the victim.
      const std::size_t idx =
          vic.is_conv ? static_cast<std::size_t>(ic) * static_cast<std::size_t>(cell)
                      : static_cast<std::size_t>(ic);
      EXPECT_EQ(vic.weight->value[idx], sub.weight->value[idx])
          << "layer " << li << " row " << ic;
    }
  }
}

// ------------------------------------------------------- Jacobian / I-FGSM ---

TEST(JacobianAug, EachRoundDoublesTheCorpus) {
  auto model = tiny_factory()();
  auto oracle = tiny_factory()();
  auto corpus = tiny_corpus(*oracle);
  JacobianAugOptions options;
  options.rounds = 2;
  const auto augmented = jacobian_augment(*model, *oracle, corpus.images,
                                          corpus.labels, options);
  EXPECT_EQ(augmented.images.dim(0), corpus.images.dim(0) * 4);
  EXPECT_EQ(augmented.labels.size(), static_cast<std::size_t>(corpus.images.dim(0)) * 4);
}

TEST(JacobianAug, PerturbationIsBoundedByLambda) {
  auto model = tiny_factory()();
  auto oracle = tiny_factory()();
  auto corpus = tiny_corpus(*oracle);
  JacobianAugOptions options;
  options.rounds = 1;
  options.lambda = 0.05f;
  const auto augmented = jacobian_augment(*model, *oracle, corpus.images,
                                          corpus.labels, options);
  const int n = corpus.images.dim(0);
  const std::size_t per = corpus.images.numel() / static_cast<std::size_t>(n);
  for (int i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < per; ++j) {
      const float orig = corpus.images[static_cast<std::size_t>(i) * per + j];
      const float aug = augmented.images[static_cast<std::size_t>(n + i) * per + j];
      EXPECT_LE(std::abs(aug - orig), options.lambda + 1e-6f);
    }
  }
}

TEST(JacobianAug, InputGradientMatchesFiniteDifference) {
  auto model = tiny_factory()();
  nn::DatasetConfig config;
  config.height = config.width = 8;
  config.samples = 10;
  nn::SyntheticDataset data(config);
  nn::Tensor x = data.batch({0});
  const std::vector<int> label{3};
  nn::Tensor grad = class_logit_input_gradient(*model, x, label);
  const float h = 1e-2f;
  for (std::size_t i = 0; i < x.numel(); i += 37) {
    nn::Tensor xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    const float fp = model->forward(xp, false).at2(0, 3);
    const float fm = model->forward(xm, false).at2(0, 3);
    const float numeric = (fp - fm) / (2 * h);
    EXPECT_NEAR(grad[i], numeric, 0.05f * std::max(1.0f, std::abs(numeric)));
  }
}

// A small trained-ish linear model gives the attack a well-conditioned
// loss surface (an untrained deep net's gradients are too flat for a
// budgeted test).
std::unique_ptr<nn::Sequential> linear_model() {
  util::Rng rng(5);
  auto net = std::make_unique<nn::Sequential>();
  net->add(std::make_unique<nn::Flatten>());
  net->add(std::make_unique<nn::Linear>(3 * 8 * 8, 10, true, rng));
  return net;
}

TEST(Ifgsm, FoolsItsOwnSubstituteWithinBudget) {
  auto model = linear_model();
  nn::DatasetConfig config;
  config.height = config.width = 8;
  config.samples = 40;
  nn::SyntheticDataset data(config);
  std::vector<int> idx(16);
  for (int i = 0; i < 16; ++i) idx[static_cast<std::size_t>(i)] = i;
  const nn::Tensor images = data.batch(idx);
  const auto labels = nn::predict(model->forward(images, false));

  IfgsmOptions options;
  options.max_iters = 50;
  options.epsilon = 2.0f;  // generous budget on an untrained model
  options.alpha = 0.1f;
  const auto batch = generate_ifgsm(*model, images, labels, 10, options);
  int fooled = 0;
  for (bool f : batch.fooled_substitute) fooled += f ? 1 : 0;
  EXPECT_GT(fooled, 12);  // near-100% success on its own substitute

  // Perturbations respect the L-inf ball.
  for (std::size_t i = 0; i < images.numel(); ++i) {
    EXPECT_LE(std::abs(batch.images[i] - images[i]), options.epsilon + 1e-5f);
  }
  // Targets are never the true label.
  for (std::size_t i = 0; i < batch.targets.size(); ++i) {
    EXPECT_NE(batch.targets[i], batch.true_labels[i]);
  }
}

TEST(Ifgsm, TransferToIdenticalVictimIsTotal) {
  auto model = linear_model();
  nn::DatasetConfig config;
  config.height = config.width = 8;
  config.samples = 30;
  nn::SyntheticDataset data(config);
  std::vector<int> idx{0, 1, 2, 3, 4, 5, 6, 7};
  const nn::Tensor images = data.batch(idx);
  const auto labels = nn::predict(model->forward(images, false));
  IfgsmOptions options;
  options.max_iters = 50;
  options.epsilon = 2.0f;
  options.alpha = 0.1f;
  const auto batch = generate_ifgsm(*model, images, labels, 10, options);
  const auto result = evaluate_transfer(*model, batch);
  // The "victim" is the substitute itself: every successful example transfers.
  EXPECT_DOUBLE_EQ(result.transferability, 1.0);
}

}  // namespace
}  // namespace sealdl::attack
