// Plan-level rules: the EncryptionPlan itself (shape, ratio floor, boundary
// policy), its propagation into fmap markings (closure), and residual-union
// coverage for identity skip connections.
#include <algorithm>
#include <cmath>
#include <string>

#include "verify/checker.hpp"

namespace sealdl::verify {

namespace {

using models::LayerSpec;

/// Encrypted-row count that tolerates a malformed (wrong-size) vector.
int safe_encrypted_count(const core::LayerPlan& lp) {
  const std::size_t limit = std::min(
      lp.encrypted_rows.size(), static_cast<std::size_t>(std::max(lp.rows, 0)));
  int n = 0;
  for (std::size_t r = 0; r < limit; ++r) n += lp.encrypted_rows[r] ? 1 : 0;
  return n;
}

class PlanShapeChecker final : public Checker {
 public:
  std::string_view name() const override { return "plan-shape"; }
  std::vector<std::string> rules() const override { return {"plan.shape"}; }

  void run(const AnalysisInput& input, Report& report) const override {
    if (!input.plan) return;
    const core::ModelLayout& layout = *input.layout;
    std::size_t weight_specs = 0;
    for (std::size_t i = 0; i < input.specs.size(); ++i) {
      if (layout.plan_index(i) >= 0) ++weight_specs;
    }
    if (input.plan->layer_count() != weight_specs) {
      report.add({"plan.shape", Severity::kError, "", 0, 0,
                  "plan has " + std::to_string(input.plan->layer_count()) +
                      " layers for " + std::to_string(weight_specs) +
                      " CONV/FC specs"});
      return;
    }
    for (std::size_t i = 0; i < input.specs.size(); ++i) {
      const int p = layout.plan_index(i);
      if (p < 0) continue;
      const LayerSpec& s = input.specs[i];
      const auto& lp = input.plan->layer(static_cast<std::size_t>(p));
      const int expected = s.weight_rows();
      if (lp.rows != expected) {
        report.add({"plan.shape", Severity::kError, s.name, 0, 0,
                    "plan rows " + std::to_string(lp.rows) + " != " +
                        std::to_string(expected) + " input channels/features"});
        continue;
      }
      if (lp.encrypted_rows.size() != static_cast<std::size_t>(lp.rows)) {
        report.add({"plan.shape", Severity::kError, s.name, 0, 0,
                    "encrypted_rows has " +
                        std::to_string(lp.encrypted_rows.size()) +
                        " entries for " + std::to_string(lp.rows) + " rows"});
        continue;
      }
      const int count = safe_encrypted_count(lp);
      if (lp.fully_encrypted && count != lp.rows) {
        report.add({"plan.shape", Severity::kError, s.name, 0, 0,
                    "fully_encrypted set but only " + std::to_string(count) +
                        "/" + std::to_string(lp.rows) + " rows marked"});
      } else if (!lp.fully_encrypted && lp.rows > 0 && count == lp.rows) {
        report.add({"plan.shape", Severity::kError, s.name, 0, 0,
                    "all rows encrypted but fully_encrypted flag not set"});
      }
    }
  }
};

class PlanRatioChecker final : public Checker {
 public:
  std::string_view name() const override { return "plan-ratio"; }
  std::vector<std::string> rules() const override { return {"plan.ratio"}; }

  void run(const AnalysisInput& input, Report& report) const override {
    if (!input.plan ||
        input.plan->layer_count() != input.boundary.size()) {
      return;  // plan.shape reports the mismatch
    }
    const double ratio = input.plan_options.encryption_ratio;
    for (std::size_t i = 0; i < input.specs.size(); ++i) {
      const int p = input.layout->plan_index(i);
      if (p < 0 || input.boundary[static_cast<std::size_t>(p)]) continue;
      const auto& lp = input.plan->layer(static_cast<std::size_t>(p));
      // The same rounding the plan builder applies (core::apply_policy).
      const int floor_rows = std::min(
          lp.rows, static_cast<int>(std::ceil(ratio * lp.rows)));
      const int count = safe_encrypted_count(lp);
      if (count < floor_rows) {
        report.add({"plan.ratio", Severity::kError, input.specs[i].name, 0, 0,
                    "encrypts " + std::to_string(count) + "/" +
                        std::to_string(lp.rows) + " rows; ratio " +
                        std::to_string(ratio) + " requires at least " +
                        std::to_string(floor_rows)});
      }
    }
  }
};

class PlanBoundaryChecker final : public Checker {
 public:
  std::string_view name() const override { return "plan-boundary"; }
  std::vector<std::string> rules() const override { return {"plan.boundary"}; }

  void run(const AnalysisInput& input, Report& report) const override {
    if (!input.plan ||
        input.plan->layer_count() != input.boundary.size()) {
      return;
    }
    for (std::size_t i = 0; i < input.specs.size(); ++i) {
      const int p = input.layout->plan_index(i);
      if (p < 0 || !input.boundary[static_cast<std::size_t>(p)]) continue;
      const auto& lp = input.plan->layer(static_cast<std::size_t>(p));
      const int count = safe_encrypted_count(lp);
      if (!lp.fully_encrypted || count != lp.rows) {
        report.add({"plan.boundary", Severity::kError, input.specs[i].name, 0, 0,
                    "boundary layer (head/tail policy) encrypts only " +
                        std::to_string(count) + "/" + std::to_string(lp.rows) +
                        " rows"});
      }
    }
  }
};

class PlanClosureChecker final : public Checker {
 public:
  std::string_view name() const override { return "plan-closure"; }
  std::vector<std::string> rules() const override { return {"plan.closure"}; }

  void run(const AnalysisInput& input, Report& report) const override {
    const auto& map = input.heap.secure_map();
    if (!input.plan) {
      if (map.secure_bytes() != 0) {
        report.add({"plan.closure", Severity::kError, "", 0, 0,
                    "baseline configuration has " +
                        std::to_string(map.secure_bytes()) + " secure bytes"});
      }
      return;
    }
    const auto& layers = input.layout->layers();
    for (std::size_t i = 0; i < input.specs.size(); ++i) {
      const LayerSpec& s = input.specs[i];
      const auto& layer = layers[i];
      const int cp = input.layout->consumer_plan_index(i);
      const core::LayerPlan* lp =
          cp >= 0 && static_cast<std::size_t>(cp) < input.plan->layer_count()
              ? &input.plan->layer(static_cast<std::size_t>(cp))
              : nullptr;
      if (s.type == LayerSpec::Type::kFc) {
        // Dense feature vector: 4 bytes per feature, feature f pairs with
        // the consumer's kernel row f.
        for (int f = 0; f < s.in_features; ++f) {
          const bool expected = lp && row_encrypted_safe(*lp, f);
          const sim::Addr addr =
              layer.ifmap_base + static_cast<std::uint64_t>(f) * 4;
          if (expected == map.is_secure(addr)) continue;
          report.add({"plan.closure", Severity::kError, s.name, addr, addr + 4,
                      expected
                          ? "feature " + std::to_string(f) +
                                " feeds an encrypted row but is not marked"
                          : "feature " + std::to_string(f) +
                                " marked secure but its consumer row is plain"});
        }
      } else {
        for (int c = 0; c < layer.ifmap_channels; ++c) {
          const bool expected = lp && c < lp->rows && row_encrypted_safe(*lp, c);
          const sim::Addr begin =
              layer.ifmap_base +
              static_cast<std::uint64_t>(c) * layer.ifmap_channel_pitch;
          const sim::Addr end = begin + layer.ifmap_channel_pitch;
          const bool first = map.is_secure(begin);
          const bool last = map.is_secure(end - 1);
          if (expected && !(first && last)) {
            report.add({"plan.closure", Severity::kError, s.name, begin, end,
                        "channel " + std::to_string(c) +
                            " feeds an encrypted row but is not fully marked"});
          } else if (!expected && (first || last)) {
            report.add({"plan.closure", Severity::kError, s.name, begin, end,
                        "channel " + std::to_string(c) +
                            " marked secure but its consumer row is plain"});
          }
        }
      }
    }
    // The network output is always encrypted under SEAL (§III-A: Z leaves
    // the accelerator encrypted).
    const auto& last = layers.back();
    for (int c = 0; c < last.ofmap_channels; ++c) {
      const sim::Addr begin =
          last.ofmap_base + static_cast<std::uint64_t>(c) * last.ofmap_channel_pitch;
      const sim::Addr end = begin + last.ofmap_channel_pitch;
      if (!map.is_secure(begin) || !map.is_secure(end - 1)) {
        report.add({"plan.closure", Severity::kError, "output", begin, end,
                    "network output channel " + std::to_string(c) +
                        " is not encrypted"});
      }
    }
  }
};

class PlanResidualChecker final : public Checker {
 public:
  std::string_view name() const override { return "plan-residual"; }
  std::vector<std::string> rules() const override { return {"plan.residual"}; }

  void run(const AnalysisInput& input, Report& report) const override {
    if (!input.plan) return;
    for (std::size_t i = 0; i < input.specs.size(); ++i) {
      if (input.specs[i].skip_from < 0) continue;
      const auto source = static_cast<std::size_t>(input.specs[i].skip_from);
      // The sum feeds the first weight layer after the closing conv.
      const int ep = input.layout->plan_index(source);
      const int cp = input.layout->consumer_plan_index(i + 1);
      if (ep < 0 || cp < 0 ||
          static_cast<std::size_t>(ep) >= input.plan->layer_count() ||
          static_cast<std::size_t>(cp) >= input.plan->layer_count()) {
        continue;
      }
      const auto& entry = input.plan->layer(static_cast<std::size_t>(ep));
      const auto& consumer = input.plan->layer(static_cast<std::size_t>(cp));
      // A fully-encrypted consumer (e.g. the boundary FC head) re-encrypts
      // every summed channel itself; the skip source owes it nothing.
      if (consumer.fully_encrypted) continue;
      const int limit = std::min(entry.rows, consumer.rows);
      for (int r = 0; r < limit; ++r) {
        if (!row_encrypted_safe(consumer, r) || row_encrypted_safe(entry, r)) {
          continue;
        }
        report.add({"plan.residual", Severity::kError,
                    input.specs[source].name, 0, 0,
                    "identity skip closed by " + input.specs[i].name +
                        " leaves channel " + std::to_string(r) +
                        " plaintext while its consumer encrypts row " +
                        std::to_string(r)});
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Checker>> make_plan_checkers() {
  std::vector<std::unique_ptr<Checker>> checkers;
  checkers.push_back(std::make_unique<PlanShapeChecker>());
  checkers.push_back(std::make_unique<PlanRatioChecker>());
  checkers.push_back(std::make_unique<PlanBoundaryChecker>());
  checkers.push_back(std::make_unique<PlanClosureChecker>());
  checkers.push_back(std::make_unique<PlanResidualChecker>());
  return checkers;
}

}  // namespace sealdl::verify
