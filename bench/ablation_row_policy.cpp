// Ablation: which rows should stay plaintext? Compares the paper's
// smallest-l1 policy against a random subset and the security-inverted
// largest-l1 policy, on both axes: substitute accuracy (security) and
// encrypted-traffic fraction (performance is policy-independent by volume).
//
//   ./ablation_row_policy [--quick]
#include <cstdio>

#include "attack/pipeline.hpp"
#include "attack/substitute.hpp"
#include "core/importance.hpp"
#include "bench/bench_common.hpp"

namespace sealdl {
namespace {

int main_impl(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  flags.reject_unknown();

  bench::banner("Ablation — row-selection policy at 50% ratio (vgg16)",
                "the SE scheme leaves the smallest-l1 rows plaintext; exposing "
                "the largest rows instead should hand the adversary a much "
                "better substitute");

  attack::PipelineOptions o;
  o.model = "vgg16";
  o.build.input_hw = 16;
  o.build.width_div = 16;
  o.dataset.height = o.dataset.width = 16;
  o.dataset.samples = 2400;
  o.dataset.noise_stddev = 0.35f;
  o.test_holdout = 300;
  o.victim_train.epochs = quick ? 3 : 5;
  o.victim_train.sgd.lr = 0.02f;
  o.victim_train.lr_decay = 0.7f;
  o.substitute_train.epochs = quick ? 4 : 8;
  o.substitute_train.sgd.lr = 0.015f;
  o.substitute_train.lr_decay = 0.8f;
  o.augment.rounds = 2;

  attack::SecurityPipeline pipe(o);
  pipe.prepare();
  std::printf("victim accuracy: %s\n\n",
              util::Table::pct(pipe.victim_test_accuracy()).c_str());

  const struct {
    const char* name;
    core::RowPolicy policy;
  } policies[] = {
      {"smallest-l1 plain (SEAL)", core::RowPolicy::kSmallestL1Plain},
      {"random plain", core::RowPolicy::kRandomPlain},
      {"largest-l1 plain (inverted)", core::RowPolicy::kLargestL1Plain},
  };

  util::Table table({"policy", "substitute accuracy", "exposed weight l1 share"});
  for (const auto& p : policies) {
    core::PlanOptions plan_options;
    plan_options.encryption_ratio = 0.5;
    plan_options.policy = p.policy;
    const auto plan = core::EncryptionPlan::from_model(pipe.victim(), plan_options);

    // l1 mass of the *exposed* (plaintext) weights relative to total.
    double exposed = 0.0, total = 0.0;
    const auto layers = core::collect_weight_layers(pipe.victim());
    for (std::size_t li = 0; li < layers.size(); ++li) {
      const auto norms = core::kernel_row_l1(layers[li]);
      for (int r = 0; r < layers[li].rows; ++r) {
        total += norms[static_cast<std::size_t>(r)];
        if (!plan.layer(li).row_encrypted(r)) {
          exposed += norms[static_cast<std::size_t>(r)];
        }
      }
    }

    auto sub = attack::make_seal_substitute(
        [&] { return models::build_model(o.model, o.build); }, pipe.victim(),
        plan, pipe.corpus(), o.substitute_train, o.freeze_known);
    table.add_row({p.name, util::Table::pct(pipe.test_accuracy(*sub)),
                   util::Table::pct(exposed / total)});
  }
  table.print();

  return 0;
}

}  // namespace
}  // namespace sealdl

int main(int argc, char** argv) {
  return sealdl::bench::run_main(sealdl::main_impl, argc, argv);
}
