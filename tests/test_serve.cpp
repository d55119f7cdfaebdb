// Serving layer: request generation, admission policies, the batch latency
// model, profiling-telemetry merge determinism, the serving loop's
// accounting, and static validation of ServeOptions (serve.options.*).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "serve/admission_queue.hpp"
#include "serve/request_gen.hpp"
#include "serve/server.hpp"
#include "sim/scheme_registry.hpp"
#include "telemetry/report.hpp"
#include "verify/serve_checkers.hpp"
#include "workload/batch_model.hpp"

namespace sealdl::serve {
namespace {

using models::LayerSpec;

/// Small CONV+FC network that simulates in milliseconds.
NamedNetwork tiny_net(const std::string& name, int channels) {
  LayerSpec conv;
  conv.type = LayerSpec::Type::kConv;
  conv.name = "conv";
  conv.in_channels = channels;
  conv.out_channels = channels;
  conv.in_h = conv.in_w = 8;
  LayerSpec fc;
  fc.type = LayerSpec::Type::kFc;
  fc.name = "fc";
  fc.in_features = channels * conv.out_h() * conv.out_w();
  fc.out_features = 10;
  return {name, {conv, fc}};
}

workload::RunOptions fast_options() {
  workload::RunOptions options;
  options.max_tiles_per_layer = 16;
  return options;
}

ServeOptions low_load() {
  ServeOptions options;
  options.rate_rps = 200.0;
  options.duration_s = 0.02;
  options.queue_depth = 8;
  options.max_batch = 4;
  options.seed = 11;
  return options;
}

Request make_request(std::uint64_t id, int network, sim::Cycle arrival) {
  Request request;
  request.id = id;
  request.network = network;
  request.arrival = arrival;
  return request;
}

// ------------------------------------------------------------ request gen ---

TEST(RequestGen, DeterministicAndOrdered) {
  ServeOptions options;
  options.rate_rps = 1000.0;
  options.duration_s = 0.1;
  options.seed = 42;
  const auto a = generate_requests(options, 3, 700.0);
  const auto b = generate_requests(options, 3, 700.0);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].network, b[i].network);
    EXPECT_EQ(a[i].id, i);
    EXPECT_GE(a[i].network, 0);
    EXPECT_LT(a[i].network, 3);
    if (i) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
  }
}

TEST(RequestGen, MeanRateMatchesOffered) {
  ServeOptions options;
  options.rate_rps = 500.0;
  options.duration_s = 1.0;
  options.seed = 7;
  const auto requests = generate_requests(options, 1, 700.0);
  // Poisson count over a long window: ~500 +- a few sigma (sqrt(500)~22).
  EXPECT_NEAR(static_cast<double>(requests.size()), 500.0, 100.0);
}

TEST(RequestGen, DifferentSeedsDiverge) {
  ServeOptions options;
  options.rate_rps = 1000.0;
  options.duration_s = 0.05;
  options.seed = 1;
  const auto a = generate_requests(options, 2, 700.0);
  options.seed = 2;
  const auto b = generate_requests(options, 2, 700.0);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_TRUE(a.size() != b.size() || a.front().arrival != b.front().arrival);
}

// -------------------------------------------------------- admission queue ---

TEST(AdmissionQueue, DropPolicyRejectsWhenFull) {
  AdmissionQueue queue(2, OverloadPolicy::kDrop);
  EXPECT_FALSE(queue.offer(make_request(0, 0, 10)).has_value());
  EXPECT_FALSE(queue.offer(make_request(1, 0, 11)).has_value());
  EXPECT_FALSE(queue.offer(make_request(2, 0, 12)).has_value());
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.admitted(), 2u);
  EXPECT_EQ(queue.dropped(), 1u);
  EXPECT_EQ(queue.front().id, 0u);
}

TEST(AdmissionQueue, ShedOldestEvictsFront) {
  AdmissionQueue queue(2, OverloadPolicy::kShedOldest);
  queue.offer(make_request(0, 0, 10));
  queue.offer(make_request(1, 0, 11));
  const auto shed = queue.offer(make_request(2, 0, 12));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->id, 0u);
  EXPECT_EQ(queue.shed(), 1u);
  EXPECT_EQ(queue.admitted(), 3u);
  EXPECT_EQ(queue.front().id, 1u);
}

TEST(AdmissionQueue, BlockPolicyBacklogsAndRefills) {
  AdmissionQueue queue(2, OverloadPolicy::kBlock);
  queue.offer(make_request(0, 0, 10));
  queue.offer(make_request(1, 0, 11));
  queue.offer(make_request(2, 0, 12));
  queue.offer(make_request(3, 0, 13));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.backlog_size(), 2u);
  EXPECT_EQ(queue.blocked(), 2u);
  EXPECT_EQ(queue.peak_backlog(), 2u);

  // Dispatch frees both slots; the backlog refills in arrival order.
  const auto batch = queue.pop_batch(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[1].id, 1u);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.backlog_size(), 0u);
  EXPECT_EQ(queue.front().id, 2u);
  EXPECT_EQ(queue.admitted(), 4u);
}

TEST(AdmissionQueue, ZeroDepthShedOldestDropsInsteadOfUndefinedBehavior) {
  // Regression: depth 0 under shed-oldest used to call queue_.front() on an
  // empty deque (undefined behavior reachable straight through the library
  // API). The arrival must be refused and counted as a drop so the
  // accounting identity generated == completed + dropped + shed holds.
  AdmissionQueue queue(0, OverloadPolicy::kShedOldest);
  EXPECT_FALSE(queue.offer(make_request(0, 0, 10)).has_value());
  EXPECT_FALSE(queue.offer(make_request(1, 0, 11)).has_value());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.admitted(), 0u);
  EXPECT_EQ(queue.shed(), 0u);
  EXPECT_EQ(queue.dropped(), 2u);
  EXPECT_EQ(queue.offered(), 2u);
  EXPECT_TRUE(queue.empty());
}

TEST(AdmissionQueue, PopBatchGroupsByNetworkPreservingOthers) {
  AdmissionQueue queue(8, OverloadPolicy::kDrop);
  queue.offer(make_request(0, 0, 1));
  queue.offer(make_request(1, 1, 2));
  queue.offer(make_request(2, 0, 3));
  queue.offer(make_request(3, 1, 4));
  queue.offer(make_request(4, 0, 5));
  const auto batch = queue.pop_batch(2);  // front network 0, cap 2
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[1].id, 2u);
  // Remaining queue keeps FIFO order: 1, 3, 4.
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.front().id, 1u);
}

// ------------------------------------------------------------ batch model ---

TEST(BatchModel, BatchOneEqualsProfileAndGrowsSublinearly) {
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 8, 1, nullptr);
  const workload::NetworkResult& profile = model.profile(0);

  const double b1 = model.service_cycles(0, 1);
  EXPECT_DOUBLE_EQ(b1, profile.total_cycles());
  double previous = b1;
  for (int b = 2; b <= 8; ++b) {
    const double cycles = model.service_cycles(0, b);
    EXPECT_GT(cycles, previous);              // more work than batch b-1
    EXPECT_LT(cycles, b1 * b + 1e-9);         // never worse than b serial runs
    // At least the non-amortizable share of each extra inference is paid.
    EXPECT_GT(cycles, b1 * (1.0 + 0.5 * (b - 1)) * 0.5);
    previous = cycles;
  }
  // Out-of-range batches clamp instead of reading past the table.
  EXPECT_DOUBLE_EQ(model.service_cycles(0, 0), b1);
  EXPECT_DOUBLE_EQ(model.service_cycles(0, 99), model.service_cycles(0, 8));
}

TEST(BatchModel, WeightHeavyLayerAmortizesMoreThanWeightless) {
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 2, 1, nullptr);
  const workload::NetworkResult& profile = model.profile(0);
  ASSERT_EQ(profile.layers.size(), 2u);
  for (const auto& layer : profile.layers) {
    EXPECT_GT(layer.weight_bytes, 0u);
    // Batch 2 of one layer costs less than twice its batch-1 time whenever
    // any weight traffic amortizes, and never more.
    const double b2 = workload::batched_layer_cycles(layer, config, 2);
    EXPECT_LE(b2, 2.0 * layer.full_cycles());
    EXPECT_GE(b2, layer.full_cycles());
  }
}

TEST(BatchModel, EncryptionInflatesServiceTime) {
  const NamedNetwork net = tiny_net("tiny", 8);
  sim::GpuConfig plain = sim::GpuConfig::gtx480();
  sim::GpuConfig direct = sim::GpuConfig::gtx480();
  direct.scheme = &sim::resolve_scheme("direct");
  const ServiceModel model_plain({net}, plain, fast_options(), 1, 1, nullptr);
  const ServiceModel model_direct({net}, direct, fast_options(), 1, 1, nullptr);
  EXPECT_GT(model_direct.service_cycles(0, 1), model_plain.service_cycles(0, 1));
}

// ---------------------------------------------- profiling telemetry merge ---

std::string report_for_jobs(int jobs) {
  const std::vector<NamedNetwork> nets = {tiny_net("a", 8), tiny_net("b", 12),
                                          tiny_net("c", 16)};
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  telemetry::TelemetryOptions topts;
  topts.sample_interval = 500;
  telemetry::RunTelemetry collect(topts);
  const ServiceModel model(nets, config, fast_options(), 4, jobs, &collect);
  ServeOptions options = low_load();
  run_server(model, options, config, &collect);
  telemetry::RunInfo info;
  info.tool = "sealdl-serve";
  info.workload = "tiny-x3";
  info.scheme = "baseline";
  info.seed = options.seed;
  return telemetry::run_report_json(info, config, collect);
}

TEST(ServiceModel, TelemetryMergeIsByteIdenticalAcrossJobs) {
  const std::string serial = report_for_jobs(1);
  EXPECT_EQ(serial, report_for_jobs(4));
  EXPECT_EQ(serial, report_for_jobs(0));  // hardware concurrency
}

TEST(ServiceModel, MergesProfilesInNetworkOrder) {
  const std::vector<NamedNetwork> nets = {tiny_net("first", 8),
                                          tiny_net("second", 12)};
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  telemetry::RunTelemetry collect;
  const ServiceModel model(nets, config, fast_options(), 2, 4, &collect);
  ASSERT_EQ(collect.layers().size(), 4u);  // 2 layers per network
  EXPECT_EQ(collect.layers()[0].name, "first/conv");
  EXPECT_EQ(collect.layers()[1].name, "first/fc");
  EXPECT_EQ(collect.layers()[2].name, "second/conv");
  EXPECT_EQ(collect.layers()[3].name, "second/fc");
  // Records sit on one concatenated timeline.
  for (std::size_t i = 1; i < collect.layers().size(); ++i) {
    EXPECT_GE(collect.layers()[i].start_cycle, collect.layers()[i - 1].start_cycle);
  }
}

// ------------------------------------------------------------ serving loop ---

TEST(Server, LowLoadCompletesEverythingWithMinimumLatency) {
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 4, 1, nullptr);
  ServeOptions options = low_load();
  const ServeReport report = run_server(model, options, config, nullptr);
  ASSERT_GT(report.generated, 0u);
  EXPECT_EQ(report.completed, report.generated);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.drop_rate, 0.0);
  // No request can finish faster than one dispatch: overhead + batch-1 time.
  const double floor_ms = (options.dispatch_overhead_cycles +
                           model.service_cycles(0, 1)) /
                          (config.core_mhz * 1e3);
  EXPECT_GE(report.p50_ms, floor_ms * 0.99);
  EXPECT_GT(report.throughput_rps, 0.0);
}

TEST(Server, AccountingBalancesUnderOverload) {
  const NamedNetwork net = tiny_net("tiny", 24);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 2, 1, nullptr);
  ServeOptions options;
  options.rate_rps = 20000.0;  // far beyond capacity
  options.duration_s = 0.02;
  options.queue_depth = 4;
  options.max_batch = 2;
  options.seed = 3;

  for (const OverloadPolicy policy :
       {OverloadPolicy::kDrop, OverloadPolicy::kShedOldest,
        OverloadPolicy::kBlock}) {
    options.policy = policy;
    const ServeReport report = run_server(model, options, config, nullptr);
    ASSERT_GT(report.generated, 0u) << policy_name(policy);
    EXPECT_EQ(report.completed + report.dropped + report.shed, report.generated)
        << policy_name(policy);
    if (policy == OverloadPolicy::kBlock) {
      // Block never loses a request; it just waits.
      EXPECT_EQ(report.completed, report.generated);
      EXPECT_GT(report.blocked, 0u);
      EXPECT_GT(report.peak_backlog, 0u);
    } else if (policy == OverloadPolicy::kDrop) {
      EXPECT_GT(report.dropped, 0u);
      EXPECT_GT(report.drop_rate, 0.0);
    } else {
      EXPECT_GT(report.shed, 0u);
    }
    // Batching engaged under pressure.
    EXPECT_GT(report.mean_batch, 1.0) << policy_name(policy);
  }
}

TEST(Server, ReplaysBitIdentically) {
  const std::vector<NamedNetwork> nets = {tiny_net("a", 8), tiny_net("b", 12)};
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model(nets, config, fast_options(), 4, 1, nullptr);
  ServeOptions options = low_load();
  options.policy = OverloadPolicy::kShedOldest;
  const ServeReport a = run_server(model, options, config, nullptr);
  const ServeReport b = run_server(model, options, config, nullptr);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.end_cycle, b.end_cycle);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  ASSERT_EQ(a.batch_log.size(), b.batch_log.size());
  for (std::size_t i = 0; i < a.batch_log.size(); ++i) {
    EXPECT_EQ(a.batch_log[i].start, b.batch_log[i].start);
    EXPECT_EQ(a.batch_log[i].size, b.batch_log[i].size);
    EXPECT_EQ(a.batch_log[i].network, b.batch_log[i].network);
    EXPECT_EQ(a.batch_log[i].cycles, b.batch_log[i].cycles);
  }
}

TEST(Server, TelemetryCarriesServingMetricsAndBatchSpans) {
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  telemetry::RunTelemetry collect;
  const ServiceModel model({net}, config, fast_options(), 4, 1, &collect);
  ServeOptions options = low_load();
  const ServeReport report = run_server(model, options, config, &collect);

  const auto* completed = collect.registry().find_counter("serve/completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->value(), report.completed);
  const auto* latency = collect.registry().find_histogram("serve/latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), report.completed);
  EXPECT_DOUBLE_EQ(latency->percentile(50.0), report.p50_ms);

  // One phase record per profile layer plus one per dispatched batch.
  EXPECT_EQ(collect.layers().size(),
            net.specs.size() + report.batch_log.size());
  std::uint64_t spans = 0;
  for (const auto& record : collect.layers()) {
    if (record.name.rfind("serve/", 0) == 0) ++spans;
  }
  EXPECT_EQ(spans, report.batches);
}

TEST(Server, ThroughputUsesFullHorizonNotLastCompletion) {
  // Regression: throughput_rps used to divide completions by end_cycle (the
  // last dispatch completion), inflating the rate whenever the device went
  // idle before the arrival horizon closed. A trickle load served in the
  // first fraction of the window must report ~the offered rate, not the
  // burst rate of its busy prefix.
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 4, 1, nullptr);
  ServeOptions options = low_load();
  options.rate_rps = 100.0;
  options.duration_s = 0.05;
  options.seed = 5;
  const ServeReport report = run_server(model, options, config, nullptr);
  ASSERT_GT(report.generated, 0u);
  ASSERT_EQ(report.completed, report.generated);

  const double horizon_cycles = options.duration_s * config.core_mhz * 1e6;
  // The scenario only exercises the fix if the device really idles before
  // the horizon; the seeded schedule above does.
  ASSERT_LT(static_cast<double>(report.end_cycle), horizon_cycles);
  const double expected =
      static_cast<double>(report.completed) / options.duration_s;
  EXPECT_NEAR(report.throughput_rps, expected, 1e-9 * expected);
  // The inflated pre-fix value: completions over the busy prefix only.
  const double inflated = static_cast<double>(report.completed) /
                          (static_cast<double>(report.end_cycle) /
                           (config.core_mhz * 1e6));
  EXPECT_LT(report.throughput_rps, inflated);
}

TEST(Server, LiveStatsLinesSnapshotStateAtBoundaryCrossings) {
  // Regression: live-stats lines used to be emitted only after a dispatch
  // completed, so a line stamped t_s reported state from later simulated
  // time (and idle gaps emitted nothing until a retroactive flush). Lines
  // must now be emitted when simulated time crosses each boundary, counting
  // exactly the completions at or before the boundary instant.
  const NamedNetwork net = tiny_net("tiny", 8);
  const sim::GpuConfig config = sim::GpuConfig::gtx480();
  const ServiceModel model({net}, config, fast_options(), 4, 1, nullptr);
  ServeOptions options = low_load();
  options.rate_rps = 400.0;
  options.duration_s = 0.02;
  options.seed = 9;
  options.live_stats = true;
  options.live_stats_interval_s = 0.002;
  std::vector<std::string> lines;
  const ServeReport report = run_server(
      model, options, config, nullptr,
      [&lines](const std::string& line) { lines.push_back(line); });
  ASSERT_GT(report.batches, 0u);
  ASSERT_FALSE(lines.empty());

  const double interval_cycles =
      options.live_stats_interval_s * config.core_mhz * 1e6;
  // Every boundary up to the last completion gets exactly one line, in
  // order — including boundaries the device idled through.
  EXPECT_EQ(lines.size(),
            static_cast<std::size_t>(
                static_cast<double>(report.end_cycle) / interval_cycles));
  const auto field = [](const std::string& line, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line.find(needle);
    EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
    return std::strtod(line.c_str() + at + needle.size(), nullptr);
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const double boundary = static_cast<double>(i + 1) * interval_cycles;
    // Timestamps are the exact boundary instants, not completion times.
    EXPECT_DOUBLE_EQ(field(lines[i], "cycle"), boundary);
    EXPECT_DOUBLE_EQ(field(lines[i], "t_s"),
                     static_cast<double>(i + 1) *
                         options.live_stats_interval_s);
    // The completed count is precisely the number of requests whose batch
    // finished at or before the boundary — never credit from the future.
    std::uint64_t done = 0;
    for (const BatchRecord& batch : report.batch_log) {
      if (static_cast<double>(batch.start) + batch.cycles <= boundary) {
        done += static_cast<std::uint64_t>(batch.size);
      }
    }
    EXPECT_EQ(static_cast<std::uint64_t>(field(lines[i], "completed")), done)
        << "line " << i;
  }
}

// ---------------------------------------------------------- serve.options ---

TEST(ServeOptionRules, CleanDefaultsPassEveryRule) {
  const verify::Report report =
      verify::run_serve_options_check(ServeOptions{}, 1);
  EXPECT_EQ(report.error_count(), 0u);
  // jobs = 0 means one worker per hardware thread — legal, not a violation.
  EXPECT_EQ(verify::run_serve_options_check(ServeOptions{}, 0).error_count(),
            0u);
}

TEST(ServeOptionRules, RateMustBePositiveFinite) {
  ServeOptions options;
  options.rate_rps = 0.0;
  EXPECT_TRUE(verify::run_serve_options_check(options, 1)
                  .fired("serve.options.rate"));
  options.rate_rps = -5.0;
  EXPECT_TRUE(verify::run_serve_options_check(options, 1)
                  .fired("serve.options.rate"));
  options.rate_rps = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(verify::run_serve_options_check(options, 1)
                  .fired("serve.options.rate"));
}

TEST(ServeOptionRules, DurationMustBePositiveFinite) {
  ServeOptions options;
  options.duration_s = 0.0;
  EXPECT_TRUE(verify::run_serve_options_check(options, 1)
                  .fired("serve.options.duration"));
  options.duration_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(verify::run_serve_options_check(options, 1)
                  .fired("serve.options.duration"));
}

TEST(ServeOptionRules, QueueMustCoverOneFullBatch) {
  ServeOptions options;
  options.queue_depth = 2;
  options.max_batch = 8;
  EXPECT_TRUE(verify::run_serve_options_check(options, 1)
                  .fired("serve.options.queue"));
  options.queue_depth = 8;
  EXPECT_FALSE(verify::run_serve_options_check(options, 1)
                   .fired("serve.options.queue"));
  options.max_batch = 0;
  EXPECT_TRUE(verify::run_serve_options_check(options, 1)
                  .fired("serve.options.queue"));
  options.max_batch = 4;
  options.queue_depth = 0;
  EXPECT_TRUE(verify::run_serve_options_check(options, 1)
                  .fired("serve.options.queue"));
}

TEST(ServeOptionRules, PolicyMustBeDeclaredEnumerator) {
  ServeOptions options;
  options.policy = static_cast<OverloadPolicy>(99);
  EXPECT_TRUE(verify::run_serve_options_check(options, 1)
                  .fired("serve.options.policy"));
  for (const OverloadPolicy policy :
       {OverloadPolicy::kDrop, OverloadPolicy::kBlock,
        OverloadPolicy::kShedOldest}) {
    options.policy = policy;
    EXPECT_FALSE(verify::run_serve_options_check(options, 1)
                     .fired("serve.options.policy"));
  }
}

TEST(ServeOptionRules, NegativeJobsRejected) {
  EXPECT_TRUE(verify::run_serve_options_check(ServeOptions{}, -1)
                  .fired("serve.options.jobs"));
  EXPECT_FALSE(verify::run_serve_options_check(ServeOptions{}, 4)
                   .fired("serve.options.jobs"));
}

TEST(ServeOptionRules, OverheadMustBeFiniteNonNegative) {
  ServeOptions options;
  options.dispatch_overhead_cycles = -5.0;
  EXPECT_TRUE(verify::run_serve_options_check(options, 1)
                  .fired("serve.options.overhead"));
  options.dispatch_overhead_cycles = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(verify::run_serve_options_check(options, 1)
                  .fired("serve.options.overhead"));
  options.dispatch_overhead_cycles = 0.0;
  EXPECT_FALSE(verify::run_serve_options_check(options, 1)
                   .fired("serve.options.overhead"));
}

TEST(ServeOptionRules, ViolationsAccumulateIntoOneReport) {
  ServeOptions options;
  options.rate_rps = -1.0;
  options.duration_s = 0.0;
  options.queue_depth = 1;
  options.max_batch = 8;
  const verify::Report report = verify::run_serve_options_check(options, -2);
  EXPECT_GE(report.error_count(), 4u);
  EXPECT_TRUE(report.fired("serve.options.rate"));
  EXPECT_TRUE(report.fired("serve.options.duration"));
  EXPECT_TRUE(report.fired("serve.options.queue"));
  EXPECT_TRUE(report.fired("serve.options.jobs"));
}

}  // namespace
}  // namespace sealdl::serve
