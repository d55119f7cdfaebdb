// Telemetry layer: registry semantics, JSON report schema, Perfetto trace
// well-formedness, and the determinism guarantees (byte-identical reports,
// telemetry never perturbs simulated cycles).
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "models/layer_spec.hpp"
#include "telemetry/collect.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/json.hpp"
#include "workload/network_runner.hpp"

namespace sealdl::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON syntax checker (validity only, no DOM).

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Registry / writer units.

TEST(MetricsRegistry, CounterAccumulatesAcrossLookups) {
  MetricsRegistry registry;
  registry.counter("sm0/loads_issued").add(3);
  registry.counter("sm0/loads_issued").add(4);
  ASSERT_NE(registry.find_counter("sm0/loads_issued"), nullptr);
  EXPECT_EQ(registry.find_counter("sm0/loads_issued")->value(), 7u);
  EXPECT_EQ(registry.find_counter("missing"), nullptr);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry registry;
  registry.gauge("mc0/dram_busy_cycles").set(2.5);
  registry.gauge("mc0/dram_busy_cycles").add(1.5);
  EXPECT_DOUBLE_EQ(registry.find_gauge("mc0/dram_busy_cycles")->value(), 4.0);
}

TEST(MetricsRegistry, HistogramBoundsFixedByFirstCall) {
  MetricsRegistry registry;
  util::Histogram& h = registry.histogram("lat", 0.0, 10.0, 10);
  h.add(5.0);
  // A second call with different bounds returns the same instrument.
  util::Histogram& again = registry.histogram("lat", 0.0, 99.0, 3);
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.count(), 1u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, JsonExportIsNameSortedAndValid) {
  MetricsRegistry registry;
  registry.counter("b").add(2);
  registry.counter("a").add(1);
  registry.gauge("z").set(0.5);
  util::JsonWriter json;
  registry.write_json(json);
  const std::string out = json.str();
  EXPECT_TRUE(JsonChecker(out).valid()) << out;
  EXPECT_LT(out.find("\"a\""), out.find("\"b\""));
}

TEST(JsonWriter, EscapesAndNests) {
  util::JsonWriter json;
  json.begin_object();
  json.field("quote\"back\\slash", "line\nbreak\ttab");
  json.key("arr").begin_array().value(std::uint64_t{1}).value(2.5).value(true).end_array();
  json.end_object();
  const std::string out = json.str();
  EXPECT_TRUE(JsonChecker(out).valid()) << out;
  EXPECT_NE(out.find("\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(out.find("\\n"), std::string::npos);
  EXPECT_EQ(out.find('\n'), std::string::npos);  // raw control chars escaped
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  util::JsonWriter json;
  json.begin_array().value(0.0 / 0.0).end_array();
  EXPECT_EQ(json.str(), "[null]");
}

// ---------------------------------------------------------------------------
// Phase classification.

TEST(Phase, ClassifyBoundPicksDominantSaturatedResource) {
  EXPECT_EQ(classify_bound(0.1, 0.1), Bound::kCompute);
  EXPECT_EQ(classify_bound(0.8, 0.2), Bound::kDram);
  EXPECT_EQ(classify_bound(0.3, 0.9), Bound::kAes);
  EXPECT_EQ(classify_bound(0.7, 0.8), Bound::kAes);   // AES wins ties upward
  EXPECT_EQ(classify_bound(0.49, 0.49), Bound::kCompute);
}

TEST(Sampler, SegmentsRebaseOntoGlobalTimeline) {
  IntervalSampler sampler(100);
  EXPECT_FALSE(sampler.due(99));
  EXPECT_TRUE(sampler.due(100));
  sampler.record({120, 1.0, 0.5, 0.25, 640});
  EXPECT_FALSE(sampler.due(219));
  EXPECT_TRUE(sampler.due(220));
  sampler.begin_segment(1000);  // next layer starts at global cycle 1000
  EXPECT_FALSE(sampler.due(50));
  sampler.record({100, 2.0, 0.0, 0.0, 0});
  ASSERT_EQ(sampler.samples().size(), 2u);
  EXPECT_EQ(sampler.samples()[0].cycle, 120u);
  EXPECT_EQ(sampler.samples()[1].cycle, 1100u);
}

// ---------------------------------------------------------------------------
// End-to-end: small two-conv network under SEAL-C.

std::vector<models::LayerSpec> tiny_network() {
  models::LayerSpec a;
  a.type = models::LayerSpec::Type::kConv;
  a.name = "convA";
  a.in_channels = 16;
  a.out_channels = 16;
  a.in_h = a.in_w = 8;
  models::LayerSpec b = a;
  b.name = "convB";
  return {a, b};
}

workload::RunOptions tiny_options(telemetry::RunTelemetry* collect) {
  workload::RunOptions options;
  options.max_tiles_per_layer = 8;
  options.plan.encryption_ratio = 0.5;
  options.telemetry = collect;
  return options;
}

sim::GpuConfig tiny_config() {
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  config.scheme = &sim::resolve_scheme("seal-c");
  return config;
}

TEST(RunReport, SchemaContainsEveryLayerAndIsValidJson) {
  TelemetryOptions topts;
  topts.sample_interval = 500;
  RunTelemetry collect(topts);
  const auto specs = tiny_network();
  workload::run_network(specs, tiny_config(), tiny_options(&collect));

  ASSERT_EQ(collect.layers().size(), specs.size());
  EXPECT_EQ(collect.layers()[0].name, "convA");
  EXPECT_EQ(collect.layers()[1].name, "convB");
  EXPECT_GT(collect.layers()[0].sim_cycles, 0u);
  // convB starts where convA's simulated slice ended.
  EXPECT_EQ(collect.layers()[1].start_cycle, collect.layers()[0].sim_cycles);

  RunInfo info;
  info.workload = "tiny";
  info.scheme = "seal-c";
  const std::string report = run_report_json(info, tiny_config(), collect);
  EXPECT_TRUE(JsonChecker(report).valid()) << report;

  // Golden schema: top-level keys in order.
  const char* keys[] = {"\"schema_version\":2", "\"tool\":",
                        "\"workload\":",        "\"scheme\":",
                        "\"seed\":",            "\"provenance\":",
                        "\"config\":",          "\"aggregate\":",
                        "\"layers\":",          "\"series\":",
                        "\"profile\":",         "\"metrics\":"};
  std::size_t last = 0;
  for (const char* key : keys) {
    const std::size_t at = report.find(key, last);
    ASSERT_NE(at, std::string::npos) << "missing " << key;
    last = at;
  }
  // Per-layer records and the boundedness tag are present.
  EXPECT_NE(report.find("\"name\":\"convA\""), std::string::npos);
  EXPECT_NE(report.find("\"name\":\"convB\""), std::string::npos);
  EXPECT_NE(report.find("\"bound\":\""), std::string::npos);
  // Per-component metrics made it through collection.
  EXPECT_NE(collect.registry().find_counter("sm0/warp_instructions"), nullptr);
  EXPECT_NE(collect.registry().find_counter("mc0/read_bytes"), nullptr);
  EXPECT_NE(collect.registry().find_counter("mc0/counter_accesses"), nullptr);
  // Sampling produced a non-empty series.
  ASSERT_NE(collect.sampler(), nullptr);
  EXPECT_FALSE(collect.sampler()->samples().empty());
}

TEST(RunReport, TraceIsWellFormedChromeTraceJson) {
  TelemetryOptions topts;
  topts.sample_interval = 500;
  RunTelemetry collect(topts);
  const auto specs = tiny_network();
  workload::run_network(specs, tiny_config(), tiny_options(&collect));

  RunInfo info;
  info.workload = "tiny";
  info.scheme = "seal-c";
  const std::string trace = chrome_trace_json(info, tiny_config(), collect);
  EXPECT_TRUE(JsonChecker(trace).valid()) << trace;
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  // One complete ("X") span per layer.
  std::size_t spans = 0, at = 0;
  while ((at = trace.find("\"ph\":\"X\"", at)) != std::string::npos) {
    ++spans;
    at += 1;
  }
  EXPECT_EQ(spans, specs.size());
  // Counter tracks exist when sampling is on.
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(trace.find("AES utilization"), std::string::npos);
}

TEST(RunReport, IdenticalRunsProduceByteIdenticalReports) {
  RunInfo info;
  info.workload = "tiny";
  info.scheme = "seal-c";
  std::string reports[2], traces[2];
  for (std::string* out : {&reports[0], &reports[1]}) {
    TelemetryOptions topts;
    topts.sample_interval = 500;
    RunTelemetry collect(topts);
    workload::run_network(tiny_network(), tiny_config(), tiny_options(&collect));
    *out = run_report_json(info, tiny_config(), collect);
  }
  EXPECT_EQ(reports[0], reports[1]);
  for (std::string* out : {&traces[0], &traces[1]}) {
    TelemetryOptions topts;
    topts.sample_interval = 500;
    RunTelemetry collect(topts);
    workload::run_network(tiny_network(), tiny_config(), tiny_options(&collect));
    *out = chrome_trace_json(info, tiny_config(), collect);
  }
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(RunReport, TelemetryDoesNotPerturbSimulatedCycles) {
  // The acceptance guarantee: enabling every telemetry hook leaves the
  // simulation cycle-identical to a plain run.
  const auto plain =
      workload::run_network(tiny_network(), tiny_config(), tiny_options(nullptr));

  TelemetryOptions topts;
  topts.sample_interval = 250;  // aggressive sampling
  RunTelemetry collect(topts);
  const auto traced =
      workload::run_network(tiny_network(), tiny_config(), tiny_options(&collect));

  ASSERT_EQ(plain.layers.size(), traced.layers.size());
  for (std::size_t i = 0; i < plain.layers.size(); ++i) {
    EXPECT_EQ(plain.layers[i].stats.cycles, traced.layers[i].stats.cycles);
    EXPECT_EQ(plain.layers[i].stats.thread_instructions,
              traced.layers[i].stats.thread_instructions);
    EXPECT_EQ(plain.layers[i].stats.dram_read_bytes,
              traced.layers[i].stats.dram_read_bytes);
  }
}

TEST(RunReport, AesUtilizationNormalizedByEngineCount) {
  // Doubling the engines halves reported utilization for the same traffic —
  // the denominator honors GpuConfig::engines_per_controller.
  sim::SimStats stats;
  stats.cycles = 1000;
  stats.aes_busy_cycles = 600.0;  // engine-summed
  sim::GpuConfig one = sim::GpuConfig::gtx480();
  one.engines_per_controller = 1;
  sim::GpuConfig two = one;
  two.engines_per_controller = 2;
  EXPECT_DOUBLE_EQ(sim::aes_utilization(stats, one),
                   600.0 / (one.num_channels * 1000.0));
  EXPECT_DOUBLE_EQ(sim::aes_utilization(stats, two),
                   sim::aes_utilization(stats, one) / 2.0);
}

}  // namespace
}  // namespace sealdl::telemetry
