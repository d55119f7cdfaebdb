// Multi-device fleet serving: router policies, pipeline-parallel sharding,
// per-device accounting, determinism, and the fleet.* reconciliation rules.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "verify/fleet_checkers.hpp"

namespace sealdl::serve {
namespace {

using models::LayerSpec;

/// Small CONV+CONV+FC network that simulates in milliseconds and has enough
/// layers to shard into two non-empty stages.
NamedNetwork tiny_net(const std::string& name, int channels) {
  LayerSpec conv1;
  conv1.type = LayerSpec::Type::kConv;
  conv1.name = "conv1";
  conv1.in_channels = channels;
  conv1.out_channels = channels;
  conv1.in_h = conv1.in_w = 8;
  LayerSpec conv2 = conv1;
  conv2.name = "conv2";
  conv2.in_h = conv1.out_h();
  conv2.in_w = conv1.out_w();
  LayerSpec fc;
  fc.type = LayerSpec::Type::kFc;
  fc.name = "fc";
  fc.in_features = channels * conv2.out_h() * conv2.out_w();
  fc.out_features = 10;
  return {name, {conv1, conv2, fc}};
}

workload::RunOptions fast_options() {
  workload::RunOptions options;
  options.max_tiles_per_layer = 16;
  return options;
}

ServeOptions busy_load() {
  ServeOptions options;
  options.rate_rps = 800.0;
  options.duration_s = 0.02;
  options.queue_depth = 8;
  options.max_batch = 4;
  options.seed = 11;
  return options;
}

/// The serving loop's batch phase records (serve/<net>x<B>, and one
/// /s<i> record per stage when sharded), in dispatch order.
std::vector<telemetry::LayerPhaseRecord> batch_records(
    const telemetry::RunTelemetry& collect) {
  std::vector<telemetry::LayerPhaseRecord> records;
  for (const telemetry::LayerPhaseRecord& record : collect.layers()) {
    if (record.name.rfind("serve/", 0) == 0) records.push_back(record);
  }
  return records;
}

FleetOptions fleet_of(int devices, RouterPolicy router = RouterPolicy::kRoundRobin,
                      int stages = 1) {
  FleetOptions fleet;
  fleet.devices = devices;
  fleet.router = router;
  fleet.shard_stages = stages;
  return fleet;
}

// -------------------------------------------------------------- accounting ---

TEST(Fleet, AccountingReconcilesAcrossRoutersDevicesAndPolicies) {
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 4, 1, nullptr);
  ServeOptions options = busy_load();
  options.rate_rps = 4000.0;  // overload so drops/sheds happen too
  options.queue_depth = 4;

  for (const int devices : {1, 2, 4}) {
    for (const RouterPolicy router :
         {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded,
          RouterPolicy::kAffinity}) {
      for (const OverloadPolicy policy :
           {OverloadPolicy::kDrop, OverloadPolicy::kShedOldest,
            OverloadPolicy::kBlock}) {
        options.policy = policy;
        const FleetOptions fleet = fleet_of(devices, router);
        const FleetReport report =
            run_fleet(model, options, fleet, config, nullptr);
        const std::string label = std::string(router_name(router)) + "/" +
                                  policy_name(policy) + "/d" +
                                  std::to_string(devices);
        ASSERT_GT(report.totals.generated, 0u) << label;
        EXPECT_EQ(report.totals.completed + report.totals.dropped +
                      report.totals.shed,
                  report.totals.generated)
            << label;
        // The fleet.* rule family must hold on every healthy run.
        const verify::Report check =
            verify::run_fleet_report_check(fleet, report);
        EXPECT_EQ(check.error_count(), 0u) << label << "\n" << check.to_text();
      }
    }
  }
}

TEST(Fleet, SingleDeviceFleetMatchesRunServer) {
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 4, 1, nullptr);
  const ServeOptions options = busy_load();
  telemetry::RunTelemetry single_collect;
  telemetry::RunTelemetry fleet_collect;
  const ServeReport single =
      run_server(model, options, config, &single_collect);
  const FleetReport fleet =
      run_fleet(model, options, fleet_of(1), config, &fleet_collect);
  EXPECT_EQ(single.completed, fleet.totals.completed);
  EXPECT_EQ(single.end_cycle, fleet.totals.end_cycle);
  EXPECT_EQ(single.p99_ms, fleet.totals.p99_ms);
  EXPECT_EQ(single.throughput_rps, fleet.totals.throughput_rps);
  const auto single_batches = batch_records(single_collect);
  const auto fleet_batches = batch_records(fleet_collect);
  ASSERT_EQ(single_batches.size(), single.batches);
  ASSERT_EQ(single_batches.size(), fleet_batches.size());
  for (std::size_t i = 0; i < single_batches.size(); ++i) {
    EXPECT_EQ(single_batches[i].start_cycle, fleet_batches[i].start_cycle);
    EXPECT_EQ(single_batches[i].full_cycles, fleet_batches[i].full_cycles);
  }
}

TEST(Fleet, MoreDevicesServeOverloadStrictlyBetter) {
  const NamedNetwork net = tiny_net("tiny", 24);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 2, 1, nullptr);
  ServeOptions options = busy_load();
  options.rate_rps = 20000.0;  // far beyond one device's capacity
  options.queue_depth = 4;
  options.max_batch = 2;
  options.policy = OverloadPolicy::kDrop;
  const FleetReport one = run_fleet(model, options, fleet_of(1), config, nullptr);
  const FleetReport four =
      run_fleet(model, options, fleet_of(4, RouterPolicy::kLeastLoaded),
                config, nullptr);
  ASSERT_GT(one.totals.dropped, 0u);
  EXPECT_GT(four.totals.completed, one.totals.completed);
  EXPECT_LT(four.totals.drop_rate, one.totals.drop_rate);
}

// ----------------------------------------------------------------- routers ---

TEST(Fleet, RoundRobinBalancesRoutedArrivals) {
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 4, 1, nullptr);
  const FleetReport report = run_fleet(model, busy_load(), fleet_of(2), config,
                                       nullptr);
  ASSERT_EQ(report.device_reports.size(), 2u);
  const std::uint64_t a = report.device_reports[0].routed;
  const std::uint64_t b = report.device_reports[1].routed;
  EXPECT_EQ(a + b, report.totals.generated);
  // Strict rotation: counts can differ by at most one.
  EXPECT_LE(a > b ? a - b : b - a, 1u);
}

TEST(Fleet, AffinityPinsSessionsToPipelines) {
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 4, 1, nullptr);
  ServeOptions options = busy_load();
  // Per-request sessions are drawn from an independent seeded stream; verify
  // the router keys on them: every request of session s lands on pipeline
  // s % P, so per-device routed counts must match a direct recount.
  std::uint64_t expect0 = 0, expect1 = 0;
  for (RequestStream arrivals(options, model.count(), config.core_mhz);
       !arrivals.done(); arrivals.pop()) {
    (arrivals.front().session % 2 == 0 ? expect0 : expect1)++;
  }
  const FleetReport report = run_fleet(
      model, options, fleet_of(2, RouterPolicy::kAffinity), config, nullptr);
  ASSERT_EQ(report.device_reports.size(), 2u);
  EXPECT_EQ(report.device_reports[0].routed, expect0);
  EXPECT_EQ(report.device_reports[1].routed, expect1);
  // The session field must not perturb the arrival schedule itself (it is
  // drawn from a separate stream): both pipelines saw real traffic here.
  EXPECT_GT(expect0, 0u);
  EXPECT_GT(expect1, 0u);
}

// ---------------------------------------------------------------- sharding ---

TEST(Fleet, StagePlanConservesCyclesAndBoundaryBytes) {
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 4, 1, nullptr);
  for (const int stages : {1, 2, 3}) {
    const ServiceModel::StagePlan plan = model.stage_plan(0, stages, 4);
    ASSERT_EQ(plan.cycles.size(), static_cast<std::size_t>(stages));
    ASSERT_EQ(plan.boundary_bytes.size(), static_cast<std::size_t>(stages));
    // Sharding moves work between devices; it never creates or destroys
    // cycles: per-batch stage sums equal the unsharded service time.
    for (int b = 1; b <= 4; ++b) {
      double sum = 0.0;
      for (int s = 0; s < stages; ++s) {
        sum += plan.cycles[static_cast<std::size_t>(s)]
                          [static_cast<std::size_t>(b - 1)];
      }
      const double whole = model.service_cycles(0, b);
      EXPECT_NEAR(sum, whole, 1e-9 * whole) << stages << " stages, batch " << b;
    }
    // The last stage exits to the host, never to a peer device.
    EXPECT_EQ(plan.boundary_bytes.back(), 0.0);
    for (int s = 0; s + 1 < stages; ++s) {
      EXPECT_GT(plan.boundary_bytes[static_cast<std::size_t>(s)], 0.0);
    }
  }
}

TEST(Fleet, ShardedPipelineCompletesEverythingWithLinkCost) {
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 4, 1, nullptr);
  ServeOptions options = busy_load();
  options.rate_rps = 300.0;
  const FleetReport flat = run_fleet(model, options, fleet_of(2), config, nullptr);
  const FleetOptions sharded_options =
      fleet_of(2, RouterPolicy::kRoundRobin, 2);
  const FleetReport sharded =
      run_fleet(model, options, sharded_options, config, nullptr);

  EXPECT_EQ(sharded.pipelines, 1);
  EXPECT_EQ(sharded.stages, 2);
  EXPECT_EQ(sharded.totals.completed, sharded.totals.generated);
  // Each dispatched microbatch runs once on every stage device.
  EXPECT_EQ(sharded.stage_runs, sharded.microbatches * 2);
  EXPECT_GT(sharded.device_reports[1].stage_runs, 0u);
  EXPECT_GT(sharded.device_reports[1].busy_cycles, 0.0);
  // Crossing the inter-device link is not free: the sharded pipeline's p50
  // cannot beat two independent unsharded devices at this light load.
  EXPECT_GE(sharded.totals.p50_ms, flat.totals.p50_ms);
  // Per-request lifecycle stages still sum exactly to end-to-end latency.
  const verify::Report check =
      verify::run_fleet_report_check(sharded_options, sharded);
  EXPECT_EQ(check.error_count(), 0u) << check.to_text();
}

TEST(Fleet, ReplaysBitIdenticallyAndRejectsBadShapes) {
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 4, 1, nullptr);
  const ServeOptions options = busy_load();
  const FleetOptions fleet = fleet_of(4, RouterPolicy::kLeastLoaded, 2);
  telemetry::RunTelemetry collect_a;
  telemetry::RunTelemetry collect_b;
  const FleetReport a = run_fleet(model, options, fleet, config, &collect_a);
  const FleetReport b = run_fleet(model, options, fleet, config, &collect_b);
  EXPECT_EQ(a.totals.end_cycle, b.totals.end_cycle);
  EXPECT_EQ(a.totals.p99_ms, b.totals.p99_ms);
  ASSERT_EQ(a.device_reports.size(), b.device_reports.size());
  for (std::size_t i = 0; i < a.device_reports.size(); ++i) {
    EXPECT_EQ(a.device_reports[i].routed, b.device_reports[i].routed);
    EXPECT_EQ(a.device_reports[i].stage_runs, b.device_reports[i].stage_runs);
    EXPECT_EQ(a.device_reports[i].busy_cycles, b.device_reports[i].busy_cycles);
  }
  // Two stage records per batch, each on its stage's device track.
  const auto batches_a = batch_records(collect_a);
  const auto batches_b = batch_records(collect_b);
  ASSERT_EQ(batches_a.size(), 2 * a.totals.batches);
  ASSERT_EQ(batches_a.size(), batches_b.size());
  for (std::size_t i = 0; i < batches_a.size(); ++i) {
    EXPECT_EQ(batches_a[i].name, batches_b[i].name);
    EXPECT_EQ(batches_a[i].start_cycle, batches_b[i].start_cycle);
    EXPECT_EQ(batches_a[i].full_cycles, batches_b[i].full_cycles);
    EXPECT_EQ(batches_a[i].device, batches_b[i].device);
  }

  EXPECT_THROW(
      run_fleet(model, options, fleet_of(3, RouterPolicy::kRoundRobin, 2),
                config, nullptr),
      std::invalid_argument);
  EXPECT_THROW(run_fleet(model, options, fleet_of(0), config, nullptr),
               std::invalid_argument);
}

// ------------------------------------------------------------- fleet rules ---

TEST(FleetRules, CleanOptionsPassAndBadOptionsFire) {
  EXPECT_EQ(verify::run_fleet_options_check(FleetOptions{}).error_count(), 0u);

  FleetOptions bad;
  bad.devices = 0;
  EXPECT_TRUE(
      verify::run_fleet_options_check(bad).fired("fleet.options.devices"));
  bad = FleetOptions{};
  bad.router = static_cast<RouterPolicy>(99);
  EXPECT_TRUE(
      verify::run_fleet_options_check(bad).fired("fleet.options.router"));
  bad = FleetOptions{};
  bad.devices = 4;
  bad.shard_stages = 3;
  EXPECT_TRUE(
      verify::run_fleet_options_check(bad).fired("fleet.options.shard"));
  bad = FleetOptions{};
  bad.microbatch = 0;
  EXPECT_TRUE(
      verify::run_fleet_options_check(bad).fired("fleet.options.shard"));
  bad = FleetOptions{};
  bad.link_latency_cycles = -1.0;
  EXPECT_TRUE(verify::run_fleet_options_check(bad).fired("fleet.options.link"));
  bad = FleetOptions{};
  bad.link_bytes_per_cycle = 0.0;
  EXPECT_TRUE(verify::run_fleet_options_check(bad).fired("fleet.options.link"));
  bad = FleetOptions{};
  bad.link_bytes_per_cycle = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(verify::run_fleet_options_check(bad).fired("fleet.options.link"));
}

TEST(FleetRules, EachReconciliationRuleFiresOnSeededViolation) {
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 4, 1, nullptr);
  const FleetOptions fleet = fleet_of(2);
  const FleetReport healthy =
      run_fleet(model, busy_load(), fleet, config, nullptr);
  ASSERT_EQ(verify::run_fleet_report_check(fleet, healthy).error_count(), 0u);

  {
    FleetReport corrupted = healthy;
    corrupted.device_reports[0].completed += 1;
    EXPECT_TRUE(verify::run_fleet_report_check(fleet, corrupted)
                    .fired("fleet.requests"));
  }
  {
    FleetReport corrupted = healthy;
    corrupted.totals.dropped += 1;  // breaks conservation AND device sums
    EXPECT_TRUE(verify::run_fleet_report_check(fleet, corrupted)
                    .fired("fleet.requests"));
  }
  {
    FleetReport corrupted = healthy;
    corrupted.device_reports[1].batches += 1;
    EXPECT_TRUE(verify::run_fleet_report_check(fleet, corrupted)
                    .fired("fleet.batches"));
  }
  {
    FleetReport corrupted = healthy;
    corrupted.microbatches += 1;
    EXPECT_TRUE(verify::run_fleet_report_check(fleet, corrupted)
                    .fired("fleet.batches"));
  }
  {
    FleetReport corrupted = healthy;
    corrupted.device_reports[0].stage = 1;  // inconsistent index mapping
    EXPECT_TRUE(verify::run_fleet_report_check(fleet, corrupted)
                    .fired("fleet.devices"));
  }
  {
    FleetReport corrupted = healthy;
    corrupted.device_reports[1].busy_cycles =
        static_cast<double>(corrupted.totals.end_cycle) * 2.0 + 10.0;
    EXPECT_TRUE(verify::run_fleet_report_check(fleet, corrupted)
                    .fired("fleet.devices"));
  }
  {
    FleetReport corrupted = healthy;
    corrupted.device_reports.pop_back();
    EXPECT_TRUE(verify::run_fleet_report_check(fleet, corrupted)
                    .fired("fleet.devices"));
  }
  {
    FleetReport corrupted = healthy;
    corrupted.totals.stage_cycles_sum =
        corrupted.totals.stage_cycles_sum * 1.01 + 1.0;
    EXPECT_TRUE(verify::run_fleet_report_check(fleet, corrupted)
                    .fired("fleet.stages"));
  }
}

}  // namespace
}  // namespace sealdl::serve
