// Paper Figure 3: inference accuracy of the adversary's substitute models
// (IP-stealing efficiency) vs SEAL encryption ratio, for white-box,
// black-box and SEAL substitutes on VGG-16 / ResNet-18 / ResNet-34.
//
//   ./fig3_ip_stealing [--quick] [--seeds 2] [--models vgg16,resnet18,resnet34]
//
// Scale note (see DESIGN.md): victims are width-scaled instances trained on
// the synthetic 10-class dataset with the paper's 90%/10% victim/adversary
// split and Jacobian-based augmentation.
#include <cstdio>

#include "attack/pipeline.hpp"
#include "bench/bench_common.hpp"

namespace sealdl {
namespace {

attack::PipelineOptions pipeline_options(const std::string& model) {
  attack::PipelineOptions o;
  o.model = model;
  o.build.input_hw = 16;
  o.build.width_div = 16;
  o.build.seed = 1 + std::hash<std::string>{}(model) % 1000;
  o.dataset.height = o.dataset.width = 16;
  o.dataset.samples = 2400;
  o.dataset.noise_stddev = 0.35f;
  o.test_holdout = 300;
  o.victim_train.epochs = 5;
  o.victim_train.sgd.lr = 0.02f;
  o.victim_train.lr_decay = 0.7f;
  o.substitute_train.epochs = 8;
  o.substitute_train.sgd.lr = 0.015f;
  o.substitute_train.lr_decay = 0.8f;
  o.augment.rounds = 2;
  return o;
}

int main_impl(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  // Single seed by default to bound runtime; pass --seeds 2+ to average out
  // substitute-training variance (~±5 accuracy points at this scale).
  const int seeds = static_cast<int>(flags.get_int("seeds", 1));
  const auto models =
      util::split_csv(flags.get("models", quick ? "vgg16" : "vgg16,resnet18,resnet34"));
  flags.reject_unknown();
  const std::vector<double> ratios =
      quick ? std::vector<double>{0.9, 0.5, 0.2}
            : std::vector<double>{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1};

  bench::banner("Figure 3 — substitute-model accuracy vs encryption ratio",
                "white-box ~94%, black-box ~75%; SEAL accuracy decreases with "
                "ratio and matches black-box for ratios >= 40%");

  std::vector<std::string> header{"substitute"};
  for (const auto& m : models) header.push_back(m);
  header.push_back("average");
  util::Table table(header);

  // Column-major collection: per model [wb, bb, ratio...].
  std::vector<std::vector<double>> columns;
  for (const auto& model : models) {
    std::fprintf(stderr, "[fig3] training victim %s...\n", model.c_str());
    attack::SecurityPipeline pipe(pipeline_options(model));
    pipe.prepare();
    std::vector<double> col;
    auto wb = pipe.white_box();
    col.push_back(pipe.test_accuracy(*wb));
    std::fprintf(stderr, "[fig3] %s black-box...\n", model.c_str());
    auto bb = pipe.black_box();
    col.push_back(pipe.test_accuracy(*bb));
    for (double ratio : ratios) {
      double acc = 0.0;
      for (int seed = 0; seed < seeds; ++seed) {
        core::EncryptionPlan plan;
        auto options = pipe.options();
        auto sub = attack::make_seal_substitute(
            [&] { return ::sealdl::models::build_model(options.model, options.build); },
            pipe.victim(),
            core::EncryptionPlan::from_model(pipe.victim(),
                                             [&] {
                                               core::PlanOptions po;
                                               po.encryption_ratio = ratio;
                                               return po;
                                             }()),
            pipe.corpus(), options.substitute_train, options.freeze_known,
            97 + static_cast<std::uint64_t>(seed) * 131);
        acc += pipe.test_accuracy(*sub);
      }
      col.push_back(acc / seeds);
      std::fprintf(stderr, "[fig3] %s ratio %.0f%% acc %.3f\n", model.c_str(),
                   ratio * 100, col.back());
    }
    columns.push_back(std::move(col));
  }

  std::vector<std::string> row_names{"white-box", "black-box"};
  for (double ratio : ratios) {
    row_names.push_back("SEAL " + util::Table::pct(ratio, 0));
  }
  for (std::size_t r = 0; r < row_names.size(); ++r) {
    std::vector<std::string> row{row_names[r]};
    double sum = 0.0;
    for (const auto& col : columns) {
      row.push_back(util::Table::pct(col[r]));
      sum += col[r];
    }
    row.push_back(util::Table::pct(sum / static_cast<double>(columns.size())));
    table.add_row(std::move(row));
  }
  table.print();

  return 0;
}

}  // namespace
}  // namespace sealdl

int main(int argc, char** argv) {
  return sealdl::bench::run_main(sealdl::main_impl, argc, argv);
}
