// Byte-provenance taint analysis: ledger semantics, SecureMap provenance
// queries, and jobs-invariance and scheme conformance of a live timing-run
// ledger.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/modes.hpp"
#include "models/layer_spec.hpp"
#include "sim/gpu_config.hpp"
#include "sim/scheme_registry.hpp"
#include "sim/secure_map.hpp"
#include "verify/analysis.hpp"
#include "verify/scheme_checkers.hpp"
#include "verify/taint.hpp"
#include "workload/network_runner.hpp"

namespace sealdl::verify {
namespace {

constexpr int kInputHw = 64;
constexpr std::uint64_t kLine = crypto::kLineBytes;

AnalysisInput small_input(bool selective = true) {
  BuildOptions options;
  options.selective = selective;
  options.plan.encryption_ratio = 0.5;
  return build_input(models::vgg16_specs(kInputHw), options);
}

// ---------------------------------------------------------------- ledger ---

TEST(TaintLedger, RecordsPerLinePerDirection) {
  TaintLedger ledger;
  ledger.record(0x1000, 128, false, TaintClass::kWeightCipher);
  ledger.record(0x1000, 128, false, TaintClass::kWeightCipher);
  ledger.record(0x1000, 64, true, TaintClass::kWeightPlain);
  ledger.record(0x2000, 128, true, TaintClass::kCounterMeta);

  ASSERT_EQ(ledger.lines().size(), 2u);
  const TaintCounts& line = ledger.lines().at(0x1000);
  EXPECT_EQ(line.read[static_cast<int>(TaintClass::kWeightCipher)], 256u);
  EXPECT_EQ(line.write[static_cast<int>(TaintClass::kWeightPlain)], 64u);
  EXPECT_EQ(ledger.class_bytes(TaintClass::kCounterMeta), 128u);
  EXPECT_EQ(ledger.total_bytes(), 256u + 64u + 128u);
}

TEST(TaintLedger, MergePreservesTotalsAndDigest) {
  TaintLedger a, b, whole;
  a.record(0x1000, 128, false, TaintClass::kFmapPlain);
  b.record(0x1000, 128, false, TaintClass::kFmapPlain);
  b.record(0x3000, 128, true, TaintClass::kFmapCipher);
  whole.record(0x1000, 128, false, TaintClass::kFmapPlain);
  whole.record(0x1000, 128, false, TaintClass::kFmapPlain);
  whole.record(0x3000, 128, true, TaintClass::kFmapCipher);

  a.merge_from(b);
  EXPECT_EQ(a.total_bytes(), whole.total_bytes());
  EXPECT_EQ(a.digest(), whole.digest());
}

TEST(TaintLedger, DigestDiscriminatesClassAndDirection) {
  TaintLedger a, b, c;
  a.record(0x1000, 128, false, TaintClass::kWeightPlain);
  b.record(0x1000, 128, false, TaintClass::kWeightCipher);
  c.record(0x1000, 128, true, TaintClass::kWeightPlain);
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

// ---------------------------------------- SecureMap provenance edge cases ---

TEST(SecureMapProvenance, OverlappingMarksCoalesce) {
  sim::SecureMap map;
  map.add_range(0x1000, 256);
  map.add_range(0x1080, 256);  // overlaps the tail of the first range
  map.add_range(0x1180, 128);  // adjacent to the merged range
  EXPECT_EQ(map.range_count(), 1u);
  EXPECT_EQ(map.secure_bytes(), 0x200u);
  EXPECT_EQ(map.secure_bytes_in(0x1000, 0x200), 0x200u);
}

TEST(SecureMapProvenance, RemoveSplitsRange) {
  sim::SecureMap map;
  map.add_range(0x1000, 0x400);
  map.remove_range(0x1100, 0x100);  // punch a hole in the middle
  EXPECT_EQ(map.range_count(), 2u);
  EXPECT_EQ(map.secure_bytes(), 0x300u);
  EXPECT_TRUE(map.is_secure(0x10ff));
  EXPECT_FALSE(map.is_secure(0x1100));
  EXPECT_FALSE(map.is_secure(0x11ff));
  EXPECT_TRUE(map.is_secure(0x1200));
}

TEST(SecureMapProvenance, VisitAscendingOrder) {
  sim::SecureMap map;
  map.add_range(0x9000, 128);
  map.add_range(0x1000, 128);
  map.add_range(0x5000, 128);
  std::vector<sim::Addr> begins;
  map.visit([&begins](sim::Addr begin, sim::Addr) { begins.push_back(begin); });
  ASSERT_EQ(begins.size(), 3u);
  EXPECT_TRUE(begins[0] < begins[1] && begins[1] < begins[2]);
}

TEST(SecureMapProvenance, SecureBytesInAtLineBoundaries) {
  sim::SecureMap map;
  // A range covering half of one 128B line and all of the next.
  map.add_range(0x1000 + kLine / 2, kLine / 2 + kLine);

  // Line 0x1000 straddles the range start: line-granular lookup says secure,
  // the byte-granular provenance query reports exactly the covered half.
  EXPECT_TRUE(map.line_is_secure(0x1000, static_cast<int>(kLine)));
  EXPECT_EQ(map.secure_bytes_in(0x1000, kLine), kLine / 2);
  EXPECT_EQ(map.secure_bytes_in(0x1000 + kLine, kLine), kLine);
  EXPECT_EQ(map.secure_bytes_in(0x1000 + 2 * kLine, kLine), 0u);
  // Zero-size and empty-map queries are well-defined.
  EXPECT_EQ(map.secure_bytes_in(0x1000, 0), 0u);
  EXPECT_EQ(sim::SecureMap{}.secure_bytes_in(0, ~0ull), 0u);
}

// ------------------------------------------------------- timing-run audit ---

workload::NetworkResult timed_run(const AnalysisInput& input,
                                  const sim::SchemeInfo& scheme, int jobs,
                                  TaintAuditor& auditor) {
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  sim::apply_scheme(scheme, config);
  workload::RunOptions options;
  options.max_tiles_per_layer = 8;
  options.selective = scheme.selective();
  options.scope = scheme.scope;
  options.plan = input.plan_options;
  options.jobs = jobs;
  options.probe_hook = &auditor;
  return workload::run_network(input.specs, config, options);
}

Report conformance(const sim::SchemeInfo& scheme, const TaintAuditor& auditor,
                   const workload::NetworkResult& result) {
  SchemeRunEvidence evidence;
  evidence.input = &auditor.input();
  evidence.ledger = &auditor.ledger();
  for (const auto& layer : result.layers) evidence.stats.merge_from(layer.stats);
  evidence.config = sim::GpuConfig::gtx480();
  sim::apply_scheme(scheme, evidence.config);
  return run_scheme_conformance(scheme, evidence);
}

TEST(TaintAuditor, TimingLedgerJobsInvariantAndClean) {
  const sim::SchemeInfo& seal_c = *sim::find_scheme("seal-c");
  const AnalysisInput input = small_input();
  TaintAuditor serial(&input);
  TaintAuditor threaded(&input);
  const auto result = timed_run(input, seal_c, 1, serial);
  timed_run(input, seal_c, 4, threaded);

  EXPECT_GT(serial.ledger().total_bytes(), 0u);
  EXPECT_EQ(serial.ledger().digest(), threaded.ledger().digest());
  EXPECT_EQ(serial.ledger().lines().size(), threaded.ledger().lines().size());

  const Report report = conformance(seal_c, serial, result);
  EXPECT_EQ(report.error_count(), 0u) << report.to_text();
}

TEST(TaintAuditor, BaselineTimingRunShowsFullVisibility) {
  const sim::SchemeInfo& baseline = *sim::find_scheme("baseline");
  const AnalysisInput input = small_input(false);
  TaintAuditor auditor(&input);
  const auto result = timed_run(input, baseline, 1, auditor);

  const TaintLedger& ledger = auditor.ledger();
  EXPECT_GT(ledger.total_bytes(), 0u);
  // Baseline puts every byte on the wire in the clear: no ciphertext classes.
  EXPECT_EQ(ledger.class_bytes(TaintClass::kWeightCipher), 0u);
  EXPECT_EQ(ledger.class_bytes(TaintClass::kFmapCipher), 0u);
  EXPECT_EQ(ledger.class_bytes(TaintClass::kCounterMeta), 0u);
  const Report report = conformance(baseline, auditor, result);
  EXPECT_EQ(report.error_count(), 0u) << report.to_text();
}

}  // namespace
}  // namespace sealdl::verify
