// Model of one network-under-check: the plan and the laid-out address space.
//
// build_input() runs the exact pipeline the timing runner executes
// (core::EncryptionPlan::for_specs -> core::ModelLayout on a SecureHeap). The
// layout's directory of placed buffers (core::Region) is the address map the
// checkers interrogate without ever running the cycle simulator; nothing
// here re-derives it. The residual topology is what the specs declare
// (models::LayerSpec::skip_from); nothing here infers it from layer names.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/encryption_plan.hpp"
#include "core/model_layout.hpp"
#include "core/secure_heap.hpp"
#include "models/layer_spec.hpp"
#include "verify/inject.hpp"

namespace sealdl::verify {

struct AnalysisInput {
  std::vector<models::LayerSpec> specs;
  core::PlanOptions plan_options;
  /// Null iff built without a plan (BuildOptions::selective false).
  std::optional<core::EncryptionPlan> plan;
  core::SecureHeap heap;
  /// The address map (directory, plan index, consumer lookup). Its directory
  /// is the analyzer's model, so the model-corruption injections edit it
  /// through ModelLayout::mutable_directory() to prove the model-vs-map
  /// rules fire.
  std::optional<core::ModelLayout> layout;
  /// Weight-layer boundary mask, parallel to the plan's layers.
  std::vector<bool> boundary;
  Injection inject = Injection::kNone;
};

struct BuildOptions {
  core::PlanOptions plan;
  /// Whether to build the encryption plan (plan-row schemes); false models
  /// the plain layout. Kept as a boolean, not a registry entry, because the
  /// standalone benchmark (benchmark/sweep.cpp) sets it.
  bool selective = true;
  Injection inject = Injection::kNone;
};

/// Builds the analysis model for `specs`, applying `options.inject` at the
/// pipeline stage that injection targets. Throws std::invalid_argument when
/// a spec's skip_from does not name an earlier CONV spec, or when the
/// requested injection is not applicable to this workload/ratio (e.g.
/// plan-residual on a topology without identity blocks).
AnalysisInput build_input(const std::vector<models::LayerSpec>& specs,
                          const BuildOptions& options);

/// Bounds-safe row query: false for rows outside the stored vector (a
/// malformed plan must never crash the checker that reports it).
[[nodiscard]] inline bool row_encrypted_safe(const core::LayerPlan& plan, int row) {
  return row >= 0 && static_cast<std::size_t>(row) < plan.encrypted_rows.size() &&
         plan.encrypted_rows[static_cast<std::size_t>(row)] != 0;
}

}  // namespace sealdl::verify
