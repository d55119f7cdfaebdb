// Choosing the encryption ratio: reproduces the paper's §III-B decision
// procedure on your own model — sweep the ratio, measure both axes
// (substitute-model accuracy as the security cost, simulated IPC as the
// performance cost), and report the knee.
//
//   ./ratio_advisor [--model vgg16] [--quick]
#include <cstdio>

#include "attack/pipeline.hpp"
#include "models/build.hpp"
#include "sim/scheme_registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/network_runner.hpp"

using namespace sealdl;

int main(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const std::string model_name = flags.get("model", "vgg16");
  const bool quick = flags.get_bool("quick", false);

  // --- security axis: substitute accuracy per ratio ---------------------------
  attack::PipelineOptions po;
  po.model = model_name;
  po.build.input_hw = 16;
  po.build.width_div = 16;
  po.dataset.height = po.dataset.width = 16;
  po.dataset.samples = quick ? 1200 : 2400;
  po.dataset.noise_stddev = 0.35f;
  po.test_holdout = 300;
  po.victim_train.epochs = quick ? 3 : 5;
  po.victim_train.sgd.lr = 0.02f;
  po.victim_train.lr_decay = 0.7f;
  po.substitute_train.epochs = quick ? 4 : 8;
  po.substitute_train.sgd.lr = 0.015f;
  po.substitute_train.lr_decay = 0.8f;
  po.augment.rounds = 2;
  attack::SecurityPipeline pipe(po);
  std::printf("training victim %s...\n", model_name.c_str());
  pipe.prepare();
  const double victim_acc = pipe.victim_test_accuracy();
  auto black_box = pipe.black_box();
  const double bb_acc = pipe.test_accuracy(*black_box);
  std::printf("victim accuracy %.1f%%; black-box adversary reaches %.1f%%\n\n",
              victim_acc * 100, bb_acc * 100);

  // --- performance axis: simulated IPC per ratio -------------------------------
  const auto specs = models::network_specs(model_name);
  workload::RunOptions run_options;
  run_options.max_tiles_per_layer = quick ? 120 : 240;
  const double baseline_ipc =
      workload::run_network(specs, sim::GpuConfig::gtx480(), run_options)
          .overall_ipc();

  util::Table table({"ratio", "substitute accuracy", "relative IPC", "verdict"});
  const std::vector<double> ratios =
      quick ? std::vector<double>{0.25, 0.5, 0.75}
            : std::vector<double>{0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9};
  double recommended = 1.0;
  for (double ratio : ratios) {
    auto substitute = pipe.seal_substitute(ratio);
    const double sub_acc = pipe.test_accuracy(*substitute);

    sim::GpuConfig config = sim::GpuConfig::gtx480();
    config.scheme = &sim::resolve_scheme("seal-d");
    workload::RunOptions seal = run_options;
    seal.plan.encryption_ratio = ratio;
    const double ipc =
        workload::run_network(specs, config, seal).overall_ipc() / baseline_ipc;

    // Secure enough when the adversary gains nothing over black-box
    // (within a small tolerance for training noise).
    const bool secure = sub_acc <= bb_acc + 0.05;
    if (secure && ratio < recommended) recommended = ratio;
    table.add_row({util::Table::pct(ratio, 0), util::Table::pct(sub_acc),
                   util::Table::fmt(ipc, 2), secure ? "secure" : "leaks IP"});
    std::printf("ratio %.0f%% done\n", ratio * 100);
  }
  std::printf("\n");
  table.print();
  std::printf("\nsmallest ratio with black-box-equivalent security: %.0f%% "
              "(paper picks 50%% from the same analysis)\n",
              recommended * 100);

  for (const auto& unused : flags.unused()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", unused.c_str());
  }
  return 0;
}
