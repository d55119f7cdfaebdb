// Trace-level rules: the generated LOAD/COMPUTE/STORE streams are walked
// op by op (no cycle simulation) and checked against the secure map.
//
// trace.mixed is the paper's §III-A invariant seen from the bus: no COMPUTE
// may pair an encrypted weight row r with a plaintext input channel r. The
// walk keeps, per program, the secure status of every weight row and fmap
// unit observed so far and re-checks pairs whenever either side grows. This
// is sound because (a) a row/channel's secure status is fixed for the whole
// program, and (b) every CONV tile's K loop visits all input channels, so a
// mixed pair that exists is always observed together before a compute.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "verify/checker.hpp"
#include "workload/layer_trace.hpp"

namespace sealdl::verify {

namespace {

constexpr std::uint64_t kLine = 128;
/// Dense FC fmaps pack 32 4-byte features per cache line.
constexpr int kFeaturesPerLine = 32;

bool is_trace_injection(Injection injection) {
  switch (injection) {
    case Injection::kTraceBounds:
    case Injection::kTraceWait:
    case Injection::kTraceOrder:
    case Injection::kTraceRegion:
      return true;
    default:
      return false;
  }
}

/// Wraps a generated program and corrupts its op stream — the trace-rule
/// counterpart of the plan/map corruptions in build_input().
class MutatingProgram final : public sim::WarpProgram {
 public:
  MutatingProgram(sim::WarpProgramPtr inner, Injection inject,
                  sim::Addr redirect_store, sim::Addr out_of_heap)
      : inner_(std::move(inner)),
        inject_(inject),
        redirect_store_(redirect_store),
        out_of_heap_(out_of_heap) {}

  std::optional<sim::WarpOp> next() override {
    while (true) {
      std::optional<sim::WarpOp> op = inner_->next();
      if (!op) return op;
      switch (inject_) {
        case Injection::kTraceBounds:
          if (op->kind == sim::WarpOp::Kind::kLoad && ++loads_ % 97 == 0) {
            op->addr = out_of_heap_;
          }
          return op;
        case Injection::kTraceWait:
          if (op->kind == sim::WarpOp::Kind::kWaitLoads) op->count = 1u << 30;
          return op;
        case Injection::kTraceOrder:
          if (op->kind == sim::WarpOp::Kind::kWaitLoads) continue;  // drop
          return op;
        case Injection::kTraceRegion:
          if (op->kind == sim::WarpOp::Kind::kStore) op->addr = redirect_store_;
          return op;
        default:
          return op;
      }
    }
  }

 private:
  sim::WarpProgramPtr inner_;
  Injection inject_;
  sim::Addr redirect_store_;
  sim::Addr out_of_heap_;
  std::uint64_t loads_ = 0;
};

class TraceChecker final : public Checker {
 public:
  explicit TraceChecker(TraceCheckOptions options) : options_(options) {}

  std::string_view name() const override { return "trace"; }
  std::vector<std::string> rules() const override {
    return {"trace.mixed", "trace.bounds", "trace.wait", "trace.order",
            "trace.region"};
  }

  void run(const AnalysisInput& input, Report& report) const override {
    const sim::Addr lo = input.heap.base();
    const sim::Addr hi = lo + input.heap.bytes_allocated();
    const auto& layers = input.layout->layers();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      workload::LayerWork work = workload::make_layer_programs(
          layers[i], options_.num_warps, options_.max_tiles);
      for (auto& generated : work.programs) {
        sim::WarpProgramPtr program = std::move(generated);
        if (is_trace_injection(input.inject)) {
          program = std::make_unique<MutatingProgram>(
              std::move(program), input.inject, /*redirect_store=*/lo,
              /*out_of_heap=*/hi + kLine);
        }
        walk_program(input, i, *program, lo, hi, report);
      }
    }
  }

 private:
  void walk_program(const AnalysisInput& input, std::size_t spec_idx,
                    sim::WarpProgram& program, sim::Addr lo, sim::Addr hi,
                    Report& report) const {
    const auto& map = input.heap.secure_map();
    const auto& layer = input.layout->layers()[spec_idx];
    const std::string& lname = input.specs[spec_idx].name;
    const bool fc = input.specs[spec_idx].type == models::LayerSpec::Type::kFc;

    // Weight row -> any loaded line of it was secure; fmap unit -> any loaded
    // line of it was *plain*. For conv fmaps the unit is the channel (pairs
    // with the equal-numbered kernel row); for dense FC fmaps it is the line
    // index (line l carries features/rows l*32 .. l*32+31).
    std::unordered_map<int, bool> row_secure;
    std::unordered_map<int, bool> unit_plain;
    std::vector<int> fresh_rows, fresh_units;
    std::unordered_set<int> reported_rows;
    std::uint64_t loads_issued = 0, loads_since_barrier = 0;
    bool order_reported = false, wait_reported = false, region_reported = false;

    auto violate = [&](int row) {
      if (!reported_rows.insert(row).second) return;
      const sim::Addr begin =
          layer.weight_base +
          static_cast<std::uint64_t>(row) * layer.weight_row_pitch;
      report.add({"trace.mixed", Severity::kError, lname, begin,
                  begin + layer.weight_row_pitch,
                  "COMPUTE pairs encrypted kernel row " + std::to_string(row) +
                      " with plaintext input channel " + std::to_string(row)});
    };

    auto drain = [&] {
      for (const int r : fresh_rows) {
        const auto it = unit_plain.find(fc ? r / kFeaturesPerLine : r);
        if (it != unit_plain.end() && it->second) violate(r);
      }
      for (const int u : fresh_units) {
        if (fc) {
          for (int r = u * kFeaturesPerLine; r < (u + 1) * kFeaturesPerLine; ++r) {
            const auto it = row_secure.find(r);
            if (it != row_secure.end() && it->second) violate(r);
          }
        } else {
          const auto it = row_secure.find(u);
          if (it != row_secure.end() && it->second) violate(u);
        }
      }
      fresh_rows.clear();
      fresh_units.clear();
    };

    while (std::optional<sim::WarpOp> op = program.next()) {
      switch (op->kind) {
        case sim::WarpOp::Kind::kLoad: {
          ++loads_issued;
          ++loads_since_barrier;
          if (op->addr % kLine != 0 || op->addr < lo || op->addr + kLine > hi) {
            report.add({"trace.bounds", Severity::kError, lname, op->addr,
                        op->addr + kLine,
                        "load outside the allocated heap or not line-aligned"});
            break;
          }
          const core::Region* region = input.layout->region_at(op->addr);
          if (!region || region->spec_index != spec_idx) break;
          const bool secure =
              map.line_is_secure(op->addr, static_cast<int>(kLine));
          if (region->kind == core::Region::Kind::kWeights) {
            const int r = static_cast<int>((op->addr - region->begin) /
                                           region->pitch);
            auto [it, inserted] = row_secure.try_emplace(r, secure);
            if (secure && (inserted || !it->second)) {
              it->second = true;
              fresh_rows.push_back(r);
            }
          } else {
            const int u = static_cast<int>(
                (op->addr - region->begin) /
                (region->dense_fc ? kLine : region->pitch));
            auto [it, inserted] = unit_plain.try_emplace(u, !secure);
            if (!secure && (inserted || !it->second)) {
              it->second = true;
              fresh_units.push_back(u);
            }
          }
          break;
        }
        case sim::WarpOp::Kind::kStore: {
          if (op->addr % kLine != 0 || op->addr < lo || op->addr + kLine > hi) {
            report.add({"trace.bounds", Severity::kError, lname, op->addr,
                        op->addr + kLine,
                        "store outside the allocated heap or not line-aligned"});
            break;
          }
          if (loads_since_barrier > 0 && !order_reported) {
            order_reported = true;
            report.add({"trace.order", Severity::kError, lname, op->addr,
                        op->addr + kLine,
                        "store issued with " +
                            std::to_string(loads_since_barrier) +
                            " loads not covered by a full WaitLoads barrier"});
          }
          const core::Region* region = input.layout->region_at(op->addr);
          const bool own_output = region != nullptr &&
                                  region->kind == core::Region::Kind::kFmap &&
                                  region->spec_index == spec_idx + 1;
          if (!own_output && !region_reported) {
            region_reported = true;
            report.add({"trace.region", Severity::kWarning, lname, op->addr,
                        op->addr + kLine,
                        "store lands in " +
                            (region ? region->name : std::string("untagged space")) +
                            " instead of the layer's output buffer"});
          }
          break;
        }
        case sim::WarpOp::Kind::kCompute:
          if (!fresh_rows.empty() || !fresh_units.empty()) drain();
          break;
        case sim::WarpOp::Kind::kWaitLoads:
          if (op->count == 0) {
            loads_since_barrier = 0;
          } else if (op->count > loads_issued && !wait_reported) {
            wait_reported = true;
            report.add({"trace.wait", Severity::kWarning, lname, 0, 0,
                        "WaitLoads threshold " + std::to_string(op->count) +
                            " exceeds the " + std::to_string(loads_issued) +
                            " loads issued so far; the barrier cannot engage"});
          }
          break;
      }
    }
  }

  TraceCheckOptions options_;
};

}  // namespace

std::unique_ptr<Checker> make_trace_checker(const TraceCheckOptions& options) {
  return std::make_unique<TraceChecker>(options);
}

}  // namespace sealdl::verify
