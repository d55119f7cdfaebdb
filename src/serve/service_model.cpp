#include "serve/service_model.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <stdexcept>
#include <utility>

#include "models/build.hpp"
#include "util/thread_pool.hpp"
#include "workload/batch_model.hpp"

namespace sealdl::serve {

NamedNetwork named_network(const std::string& name) {
  return {name, models::network_specs(name)};
}

namespace {

/// One network's profiling output: the timing result plus the task-private
/// telemetry sink (null when the caller collects nothing).
struct ProfileOutcome {
  workload::NetworkResult result;
  std::unique_ptr<telemetry::RunTelemetry> telemetry;
};

ProfileOutcome profile_network(const NamedNetwork& network,
                               const sim::GpuConfig& config,
                               workload::RunOptions options,
                               sim::Cycle sample_interval, bool collect) {
  ProfileOutcome outcome;
  if (collect) {
    telemetry::TelemetryOptions topts;
    topts.sample_interval = sample_interval;
    outcome.telemetry = std::make_unique<telemetry::RunTelemetry>(topts);
  }
  options.telemetry = outcome.telemetry.get();
  options.jobs = 1;  // parallelism lives at the network level here
  outcome.result = workload::run_network(network.specs, config, options);
  return outcome;
}

/// Folds one network's telemetry fragment into the shared sink. Called in
/// network order from the constructing thread only.
void merge_profile(const std::string& name, const ProfileOutcome& outcome,
                   telemetry::RunTelemetry* collect) {
  if (!collect || !outcome.telemetry) return;
  const telemetry::RunTelemetry& fragment = *outcome.telemetry;
  if (auto* sampler = collect->sampler()) {
    if (const auto* source = fragment.sampler()) {
      sampler->append_shifted(source->samples(), collect->timeline());
    }
  }
  for (telemetry::LayerPhaseRecord record : fragment.layers()) {
    record.name = name + "/" + record.name;
    record.start_cycle += collect->timeline();
    collect->layers().push_back(std::move(record));
  }
  collect->registry().merge_from(fragment.registry());
  collect->advance_timeline(fragment.timeline());
}

}  // namespace

ServiceModel::ServiceModel(std::vector<NamedNetwork> networks,
                           const sim::GpuConfig& config,
                           const workload::RunOptions& base_options,
                           int max_batch, int jobs,
                           telemetry::RunTelemetry* collect)
    : config_(config) {
  if (networks.empty()) throw std::invalid_argument("ServiceModel: no networks");
  const bool collecting = collect != nullptr;
  const sim::Cycle sample_interval =
      collecting && collect->sampler() ? collect->sampler()->interval() : 0;

  std::vector<ProfileOutcome> outcomes;
  outcomes.reserve(networks.size());
  const int workers = jobs == 1 ? 1 : util::ThreadPool::resolve_jobs(jobs);
  if (workers <= 1 || networks.size() <= 1) {
    for (std::size_t i = 0; i < networks.size(); ++i) {
      outcomes.push_back(profile_network(networks[i], config, base_options,
                                         sample_interval, collecting));
    }
  } else {
    util::ThreadPool pool(static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(workers), networks.size())));
    std::vector<std::future<ProfileOutcome>> futures;
    futures.reserve(networks.size());
    for (std::size_t i = 0; i < networks.size(); ++i) {
      const NamedNetwork& network = networks[i];
      futures.push_back(
          pool.submit([&network, &config, &base_options, sample_interval,
                       collecting] {
            return profile_network(network, config, base_options,
                                   sample_interval, collecting);
          }));
    }
    for (auto& future : futures) outcomes.push_back(future.get());
  }

  const int batches = std::max(1, max_batch);
  for (std::size_t i = 0; i < networks.size(); ++i) {
    merge_profile(networks[i].name, outcomes[i], collect);
    names_.push_back(networks[i].name);
    profiles_.push_back(std::move(outcomes[i].result));
    const workload::NetworkResult& result = profiles_.back();

    Aggregate aggregate;
    double cycle_sum = 0.0;
    for (const workload::LayerResult& layer : result.layers) {
      aggregate.instructions +=
          static_cast<double>(layer.stats.thread_instructions) * layer.scale;
      aggregate.dram_bytes +=
          static_cast<double>(layer.stats.dram_read_bytes +
                              layer.stats.dram_write_bytes +
                              layer.stats.counter_traffic_bytes) *
          layer.scale;
      aggregate.encrypted_bytes +=
          static_cast<double>(layer.stats.encrypted_bytes) * layer.scale;
      aggregate.bypassed_bytes +=
          static_cast<double>(layer.stats.bypassed_bytes) * layer.scale;
      const double cycles = layer.full_cycles();
      aggregate.dram_util += sim::dram_utilization(layer.stats, config) * cycles;
      aggregate.aes_util += sim::aes_utilization(layer.stats, config) * cycles;
      cycle_sum += cycles;
    }
    if (cycle_sum > 0.0) {
      aggregate.dram_util /= cycle_sum;
      aggregate.aes_util /= cycle_sum;
    }
    aggregates_.push_back(aggregate);

    std::vector<double> curve;
    curve.reserve(static_cast<std::size_t>(batches));
    for (int b = 1; b <= batches; ++b) {
      curve.push_back(workload::batched_network_cycles(result, config, b));
    }
    cycles_.push_back(std::move(curve));
  }
}

ServiceModel::StagePlan ServiceModel::stage_plan(int network, int stages,
                                                 int max_batch) const {
  const workload::NetworkResult& result =
      profiles_.at(static_cast<std::size_t>(network));
  const int num_stages = std::max(1, stages);
  const int batches = std::max(1, max_batch);
  StagePlan plan;
  plan.cycles.assign(static_cast<std::size_t>(num_stages), {});
  plan.boundary_bytes.assign(static_cast<std::size_t>(num_stages), 0.0);

  if (num_stages == 1) {
    // Unsharded: reuse the whole-network batch curve so the one-stage fleet
    // path reproduces service_cycles() to the bit.
    auto& curve = plan.cycles[0];
    curve.reserve(static_cast<std::size_t>(batches));
    for (int b = 1; b <= batches; ++b) {
      curve.push_back(workload::batched_network_cycles(result, config_, b));
    }
    return plan;
  }

  double total = 0.0;
  for (const workload::LayerResult& layer : result.layers) {
    total += layer.full_cycles();
  }
  std::vector<std::vector<const workload::LayerResult*>> groups(
      static_cast<std::size_t>(num_stages));
  double cum = 0.0;
  for (const workload::LayerResult& layer : result.layers) {
    const double midpoint = cum + layer.full_cycles() / 2.0;
    int stage = total > 0.0
                    ? static_cast<int>(midpoint / total *
                                       static_cast<double>(num_stages))
                    : 0;
    stage = std::clamp(stage, 0, num_stages - 1);
    groups[static_cast<std::size_t>(stage)].push_back(&layer);
    cum += layer.full_cycles();
  }
  // A network with fewer layers than stages leaves trailing groups empty;
  // an empty stage simply costs zero cycles and forwards zero bytes.
  for (int s = 0; s < num_stages; ++s) {
    auto& group = groups[static_cast<std::size_t>(s)];
    auto& curve = plan.cycles[static_cast<std::size_t>(s)];
    curve.reserve(static_cast<std::size_t>(batches));
    for (int b = 1; b <= batches; ++b) {
      double cycles = 0.0;
      for (const workload::LayerResult* layer : group) {
        cycles += workload::batched_layer_cycles(*layer, config_, b);
      }
      curve.push_back(cycles);
    }
    if (s + 1 < num_stages && !group.empty()) {
      const workload::LayerResult* boundary = group.back();
      plan.boundary_bytes[static_cast<std::size_t>(s)] =
          static_cast<double>(boundary->stats.dram_write_bytes) *
          boundary->scale;
    }
  }
  return plan;
}

double ServiceModel::service_cycles(int network, int batch) const {
  const auto& curve = cycles_.at(static_cast<std::size_t>(network));
  const auto idx = static_cast<std::size_t>(
      std::clamp(batch, 1, static_cast<int>(curve.size())) - 1);
  return curve[idx];
}

}  // namespace sealdl::serve
