#include "core/encryption_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/importance.hpp"

namespace sealdl::core {

int LayerPlan::encrypted_count() const {
  int n = 0;
  for (std::uint8_t v : encrypted_rows) n += v ? 1 : 0;
  return n;
}

double LayerPlan::encrypted_fraction() const {
  return rows ? static_cast<double>(encrypted_count()) / static_cast<double>(rows) : 0.0;
}

void EncryptionPlan::apply_policy(LayerPlan& plan, const std::vector<float>& norms,
                                  const PlanOptions& options, util::Rng& rng) {
  const int rows = plan.rows;
  const int encrypt_n = std::min(
      rows, static_cast<int>(std::ceil(options.encryption_ratio * rows)));
  plan.encrypted_rows.assign(static_cast<std::size_t>(rows), 0);

  switch (options.policy) {
    case RowPolicy::kSmallestL1Plain: {
      // Encrypt the rows with the *largest* l1 sums; the smallest stay plain.
      const auto order = rows_by_ascending_importance(norms);
      for (int i = rows - encrypt_n; i < rows; ++i) {
        plan.encrypted_rows[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = 1;
      }
      break;
    }
    case RowPolicy::kLargestL1Plain: {
      const auto order = rows_by_ascending_importance(norms);
      for (int i = 0; i < encrypt_n; ++i) {
        plan.encrypted_rows[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = 1;
      }
      break;
    }
    case RowPolicy::kRandomPlain: {
      std::vector<int> order(static_cast<std::size_t>(rows));
      for (int i = 0; i < rows; ++i) order[static_cast<std::size_t>(i)] = i;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_below(i)]);
      }
      for (int i = 0; i < encrypt_n; ++i) {
        plan.encrypted_rows[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = 1;
      }
      break;
    }
  }
  if (plan.encrypted_count() == rows) plan.fully_encrypted = true;
}

std::vector<bool> boundary_layers(const std::vector<bool>& is_conv,
                                  const PlanOptions& options) {
  const std::size_t n = is_conv.size();
  std::vector<bool> full(n, false);
  int head_convs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_conv[i] && head_convs < options.full_head_convs) {
      full[i] = true;
      ++head_convs;
    }
  }
  int tail_convs = 0, tail_fcs = 0;
  for (std::size_t i = n; i-- > 0;) {
    if (is_conv[i] && tail_convs < options.full_tail_convs) {
      full[i] = true;
      ++tail_convs;
    }
    if (!is_conv[i] && tail_fcs < options.full_tail_fcs) {
      full[i] = true;
      ++tail_fcs;
    }
  }
  return full;
}

EncryptionPlan EncryptionPlan::from_model(nn::Layer& model,
                                          const PlanOptions& options) {
  const auto layers = collect_weight_layers(model);
  if (layers.empty()) throw std::invalid_argument("plan: model has no weight layers");

  std::vector<bool> is_conv;
  is_conv.reserve(layers.size());
  for (const auto& layer : layers) is_conv.push_back(layer.is_conv);
  const auto full = boundary_layers(is_conv, options);

  EncryptionPlan plan;
  plan.options_ = options;
  util::Rng rng(options.random_seed);
  double encrypted_weights = 0.0, total_weights = 0.0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    LayerPlan lp;
    lp.rows = layers[i].rows;
    if (full[i]) {
      lp.fully_encrypted = true;
      lp.encrypted_rows.assign(static_cast<std::size_t>(lp.rows), 1);
    } else {
      const auto norms = kernel_row_l1(layers[i]);
      apply_policy(lp, norms, options, rng);
    }
    const double layer_weights =
        static_cast<double>(layers[i].rows) * static_cast<double>(layers[i].cols) *
        static_cast<double>(layers[i].weights_per_cell);
    total_weights += layer_weights;
    encrypted_weights += layer_weights * lp.encrypted_fraction();
    plan.layers_.push_back(std::move(lp));
  }
  plan.overall_fraction_ = total_weights ? encrypted_weights / total_weights : 0.0;
  return plan;
}

EncryptionPlan EncryptionPlan::from_row_counts(const std::vector<int>& rows,
                                               const std::vector<bool>& is_conv,
                                               const PlanOptions& options) {
  if (rows.size() != is_conv.size()) {
    throw std::invalid_argument("plan: rows/is_conv size mismatch");
  }
  const auto full = boundary_layers(is_conv, options);
  EncryptionPlan plan;
  plan.options_ = options;
  util::Rng rng(options.random_seed);
  double encrypted_rows = 0.0, total_rows = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    LayerPlan lp;
    lp.rows = rows[i];
    if (full[i]) {
      lp.fully_encrypted = true;
      lp.encrypted_rows.assign(static_cast<std::size_t>(lp.rows), 1);
    } else {
      // Geometry-only ranking: row index stands in for the l1 order. The
      // encrypted *fraction* and its address placement are what timing sees.
      std::vector<float> norms(static_cast<std::size_t>(lp.rows));
      for (int r = 0; r < lp.rows; ++r) norms[static_cast<std::size_t>(r)] = static_cast<float>(r);
      apply_policy(lp, norms, options, rng);
    }
    total_rows += lp.rows;
    encrypted_rows += lp.encrypted_count();
    plan.layers_.push_back(std::move(lp));
  }
  plan.overall_fraction_ = total_rows ? encrypted_rows / total_rows : 0.0;
  return plan;
}

EncryptionPlan EncryptionPlan::for_specs(const std::vector<models::LayerSpec>& specs,
                                         const PlanOptions& options) {
  if (!(options.encryption_ratio >= 0.0 && options.encryption_ratio <= 1.0)) {
    throw std::invalid_argument("plan: encryption ratio (--ratio) must be in [0, 1], got " +
                                std::to_string(options.encryption_ratio));
  }
  std::vector<int> rows;
  std::vector<bool> is_conv;
  for (const auto& s : specs) {
    if (s.type == models::LayerSpec::Type::kPool) continue;
    rows.push_back(s.weight_rows());
    is_conv.push_back(s.type == models::LayerSpec::Type::kConv);
  }
  return from_row_counts(rows, is_conv, options);
}

bool EncryptionPlan::row_protected(std::size_t layer, int row) const {
  if (layer >= layers_.size() || row < 0) return false;
  const LayerPlan& lp = layers_[layer];
  if (static_cast<std::size_t>(row) >= lp.encrypted_rows.size()) return false;
  return lp.row_encrypted(row);
}

std::vector<int> EncryptionPlan::plaintext_rows(std::size_t layer) const {
  std::vector<int> rows;
  if (layer >= layers_.size()) return rows;
  const LayerPlan& lp = layers_[layer];
  for (int r = 0; r < static_cast<int>(lp.encrypted_rows.size()); ++r) {
    if (!lp.row_encrypted(r)) rows.push_back(r);
  }
  return rows;
}

}  // namespace sealdl::core
