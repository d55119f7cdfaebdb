// Layout/heap rules: agreement between the plan, the SecureMap and the
// layout's directory — weight-row marking, range alignment, range tagging,
// heap bounds, directory disjointness, and byte accounting.
#include <algorithm>
#include <string>

#include "verify/checker.hpp"

namespace sealdl::verify {

namespace {

constexpr std::uint64_t kLine = 128;

using models::LayerSpec;

class LayoutWeightsChecker final : public Checker {
 public:
  std::string_view name() const override { return "layout-weights"; }
  std::vector<std::string> rules() const override { return {"layout.weights"}; }

  void run(const AnalysisInput& input, Report& report) const override {
    if (!input.plan) return;
    const auto& map = input.heap.secure_map();
    const auto& layers = input.layout->layers();
    for (std::size_t i = 0; i < input.specs.size(); ++i) {
      const int p = input.layout->plan_index(i);
      if (p < 0 || static_cast<std::size_t>(p) >= input.plan->layer_count()) {
        continue;
      }
      const LayerSpec& s = input.specs[i];
      const auto& lp = input.plan->layer(static_cast<std::size_t>(p));
      const auto& layer = layers[i];
      for (int r = 0; r < s.weight_rows(); ++r) {
        const bool expected = row_encrypted_safe(lp, r);
        const sim::Addr begin =
            layer.weight_base +
            static_cast<std::uint64_t>(r) * layer.weight_row_pitch;
        const sim::Addr end = begin + layer.weight_row_pitch;
        const bool first = map.is_secure(begin);
        const bool last = map.is_secure(end - 1);
        if (expected && !(first && last)) {
          report.add({"layout.weights", Severity::kError, s.name, begin, end,
                      "encrypted kernel row " + std::to_string(r) +
                          " is not fully marked secure"});
        } else if (!expected && (first || last)) {
          report.add({"layout.weights", Severity::kError, s.name, begin, end,
                      "plaintext kernel row " + std::to_string(r) +
                          " has secure bytes"});
        }
      }
    }
  }
};

class LayoutAlignChecker final : public Checker {
 public:
  std::string_view name() const override { return "layout-align"; }
  std::vector<std::string> rules() const override { return {"layout.align"}; }

  void run(const AnalysisInput& input, Report& report) const override {
    input.heap.secure_map().visit([&](sim::Addr begin, sim::Addr end) {
      // Encryption granularity is one cache line: a secure-range edge inside
      // a line-padded region must sit on a line boundary, or the line mixes
      // secure and plain data of *different rows*. Dense FC vectors pack 32
      // features per line by design, so their 4-byte edges are exempt (the
      // line_is_secure rule covers the whole line there).
      for (const sim::Addr edge : {begin, end}) {
        const core::Region* region =
            input.layout->region_at(edge == begin ? edge : edge - 1);
        if (!region || region->dense_fc) continue;
        if (edge % kLine != 0) {
          report.add({"layout.align", Severity::kError, region->name, begin, end,
                      "secure range edge " + std::to_string(edge % kLine) +
                          " bytes past a line boundary in " + region->name});
        }
      }
    });
  }
};

class LayoutUntaggedChecker final : public Checker {
 public:
  std::string_view name() const override { return "layout-untagged"; }
  std::vector<std::string> rules() const override { return {"layout.untagged"}; }

  void run(const AnalysisInput& input, Report& report) const override {
    const auto& directory = input.layout->directory();
    input.heap.secure_map().visit([&](sim::Addr begin, sim::Addr end) {
      sim::Addr cursor = begin;
      while (cursor < end) {
        if (const core::Region* region = input.layout->region_at(cursor)) {
          cursor = std::min(end, region->end);
          continue;
        }
        // Gap: advance to the next known region (or the range end).
        auto it = std::upper_bound(
            directory.begin(), directory.end(), cursor,
            [](sim::Addr a, const core::Region& r) { return a < r.begin; });
        const sim::Addr next =
            it != directory.end() ? std::min(end, it->begin) : end;
        report.add({"layout.untagged", Severity::kError, "", cursor, next,
                    "secure range not covered by any model region"});
        cursor = next;
      }
    });
  }
};

class LayoutBoundsChecker final : public Checker {
 public:
  std::string_view name() const override { return "layout-bounds"; }
  std::vector<std::string> rules() const override { return {"layout.bounds"}; }

  void run(const AnalysisInput& input, Report& report) const override {
    const sim::Addr lo = input.heap.base();
    const sim::Addr hi = lo + input.heap.bytes_allocated();
    input.heap.secure_map().visit([&](sim::Addr begin, sim::Addr end) {
      if (begin >= lo && end <= hi) return;
      report.add({"layout.bounds", Severity::kError, "", begin, end,
                  "secure range outside the allocated heap (" +
                      std::to_string(hi - lo) + " bytes from base)"});
    });
  }
};

class LayoutOverlapChecker final : public Checker {
 public:
  std::string_view name() const override { return "layout-overlap"; }
  std::vector<std::string> rules() const override { return {"layout.overlap"}; }

  void run(const AnalysisInput& input, Report& report) const override {
    const auto& directory = input.layout->directory();
    for (std::size_t k = 0; k + 1 < directory.size(); ++k) {
      const core::Region& a = directory[k];
      const core::Region& b = directory[k + 1];
      if (b.begin >= a.end) continue;
      report.add({"layout.overlap", Severity::kError, a.name, b.begin,
                  std::min(a.end, b.end),
                  "region " + a.name + " overlaps " + b.name});
    }
  }
};

class LayoutAccountChecker final : public Checker {
 public:
  std::string_view name() const override { return "layout-account"; }
  std::vector<std::string> rules() const override { return {"layout.account"}; }

  void run(const AnalysisInput& input, Report& report) const override {
    const std::uint64_t layout_bytes = input.layout->secure_bytes();
    const std::uint64_t map_bytes = input.heap.secure_map().secure_bytes();
    if (layout_bytes != map_bytes) {
      report.add({"layout.account", Severity::kError, "", 0, 0,
                  "layout accounted " + std::to_string(layout_bytes) +
                      " secure bytes but the map holds " +
                      std::to_string(map_bytes)});
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Checker>> make_layout_checkers() {
  std::vector<std::unique_ptr<Checker>> checkers;
  checkers.push_back(std::make_unique<LayoutWeightsChecker>());
  checkers.push_back(std::make_unique<LayoutAlignChecker>());
  checkers.push_back(std::make_unique<LayoutUntaggedChecker>());
  checkers.push_back(std::make_unique<LayoutBoundsChecker>());
  checkers.push_back(std::make_unique<LayoutOverlapChecker>());
  checkers.push_back(std::make_unique<LayoutAccountChecker>());
  return checkers;
}

}  // namespace sealdl::verify
