// Byte-provenance taint analysis: ledger semantics, SecureMap provenance
// queries, and jobs-invariance and scheme conformance of a live timing-run
// ledger.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
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
  ledger.seal();

  ASSERT_EQ(ledger.lines().size(), 2u);
  ASSERT_EQ(ledger.cells().size(), 3u);
  const auto [addr, line] = *ledger.lines().begin();
  EXPECT_EQ(addr, 0x1000u);
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
  whole.seal();

  a.merge_from(b);
  EXPECT_EQ(a.total_bytes(), whole.total_bytes());
  EXPECT_EQ(a.digest(), whole.digest());
}

TEST(TaintLedger, DigestDiscriminatesClassAndDirection) {
  TaintLedger a, b, c;
  a.record(0x1000, 128, false, TaintClass::kWeightPlain);
  b.record(0x1000, 128, false, TaintClass::kWeightCipher);
  c.record(0x1000, 128, true, TaintClass::kWeightPlain);
  a.seal();
  b.seal();
  c.seal();
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

TEST(TaintLedger, ReadingOpenCellsThrowsAndSealIsIdempotent) {
  TaintLedger ledger;
  ledger.record(0x1000, 128, false, TaintClass::kFmapPlain);
  EXPECT_FALSE(ledger.sealed());
  EXPECT_THROW((void)ledger.lines(), std::logic_error);
  EXPECT_THROW((void)ledger.digest(), std::logic_error);
  EXPECT_EQ(ledger.total_bytes(), 128u);  // totals are kept while open

  ledger.seal();
  const std::uint64_t digest = ledger.digest();
  ledger.seal();
  EXPECT_EQ(ledger.digest(), digest);

  // Recording after a seal reopens the ledger; the next seal folds it in.
  ledger.record(0x1000, 128, false, TaintClass::kFmapPlain);
  EXPECT_THROW((void)ledger.cells(), std::logic_error);
  ledger.seal();
  ASSERT_EQ(ledger.cells().size(), 1u);
  EXPECT_EQ(ledger.cells().front().bytes, 256u);
}

/// One recorded transfer of a randomized stream.
struct Transfer {
  sim::Addr line;
  std::uint32_t bytes;
  bool is_write;
  TaintClass cls;
};

/// Seeded stream over few enough lines that most are hit repeatedly, in both
/// directions and several classes, so the open table grows and collides.
std::vector<Transfer> random_transfers(std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<Transfer> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({(rng() % 5000) * kLine, static_cast<std::uint32_t>(rng() % 129),
                   rng() % 2 == 0,
                   static_cast<TaintClass>(rng() % kTaintClassCount)});
  }
  return out;
}

TEST(TaintLedger, SplitSealAndMergeMatchesSortedMapReference) {
  const std::vector<Transfer> stream = random_transfers(7, 40000);
  std::map<sim::Addr, TaintCounts> reference;
  for (const Transfer& t : stream) {
    auto& counts = t.is_write ? reference[t.line].write : reference[t.line].read;
    counts[static_cast<std::size_t>(t.cls)] += t.bytes;
  }

  // Uneven parts, each sealed on its own, folded in order.
  TaintLedger merged;
  std::size_t begin = 0;
  for (const std::size_t end : {std::size_t{1}, std::size_t{900},
                                std::size_t{17000}, stream.size()}) {
    TaintLedger part;
    for (std::size_t i = begin; i < end; ++i) {
      const Transfer& t = stream[i];
      part.record(t.line, t.bytes, t.is_write, t.cls);
    }
    part.seal();
    merged.merge_from(std::move(part));
    begin = end;
  }

  ASSERT_EQ(merged.lines().size(), reference.size());
  auto expected = reference.begin();
  for (const auto& [addr, counts] : merged.lines()) {
    EXPECT_EQ(addr, expected->first);
    EXPECT_EQ(counts.read, expected->second.read);
    EXPECT_EQ(counts.write, expected->second.write);
    ++expected;
  }
  for (std::size_t i = 1; i < merged.cells().size(); ++i) {
    const TaintCell& a = merged.cells()[i - 1];
    const TaintCell& b = merged.cells()[i];
    EXPECT_TRUE(a.line < b.line ||
                (a.line == b.line && std::pair(a.is_write, a.cls) <
                                         std::pair(b.is_write, b.cls)));
  }

  TaintLedger whole;
  for (const Transfer& t : stream) whole.record(t.line, t.bytes, t.is_write, t.cls);
  whole.seal();
  EXPECT_EQ(merged.digest(), whole.digest());
  EXPECT_EQ(merged.total_bytes(), whole.total_bytes());
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
                                  TaintAuditor& auditor,
                                  std::uint64_t chunk_tiles = 0) {
  sim::GpuConfig config = sim::GpuConfig::gtx480();
  sim::apply_scheme(scheme, config);
  workload::RunOptions options;
  options.max_tiles_per_layer = 8;
  options.selective = scheme.selective();
  options.scope = scheme.scope;
  options.plan = input.plan_options;
  options.jobs = jobs;
  options.chunk_tiles = chunk_tiles;
  options.probe_hook = &auditor;
  return workload::run_network(input.specs, config, options);
}

Report conformance(const sim::SchemeInfo& scheme, TaintAuditor& auditor,
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
  // Chunk waves hand back several probes per layer, of uneven sizes.
  for (const std::uint64_t chunk_tiles : {0u, 3u}) {
    SCOPED_TRACE("chunk_tiles " + std::to_string(chunk_tiles));
    TaintAuditor serial(&input);
    TaintAuditor threaded(&input);
    const auto result = timed_run(input, seal_c, 1, serial, chunk_tiles);
    timed_run(input, seal_c, 4, threaded, chunk_tiles);

    EXPECT_GT(serial.ledger().total_bytes(), 0u);
    EXPECT_EQ(serial.ledger().digest(), threaded.ledger().digest());
    EXPECT_EQ(serial.ledger().lines().size(), threaded.ledger().lines().size());

    const Report report = conformance(seal_c, serial, result);
    EXPECT_EQ(report.error_count(), 0u) << report.to_text();
  }
}

TEST(TaintAuditor, FoldEqualsOneLedgerWhateverTheHandBackOrder) {
  // Layer probes of very different sizes, some sealed by on_finish() (as the
  // runner does on the worker) and some not (as behind a wrapping probe that
  // does not forward it), with a ledger() read in the middle of the run.
  const AnalysisInput input = small_input();
  TaintLedger reference;
  TaintProbe reference_probe(&input, &reference);
  TaintAuditor auditor(&input);
  const std::size_t sizes[] = {3000, 10, 10, 700, 0, 5000, 1, 40, 2000};
  for (std::size_t layer = 0; layer < std::size(sizes); ++layer) {
    std::unique_ptr<sim::BusProbe> probe = auditor.make_probe(layer);
    for (const Transfer& t : random_transfers(layer, sizes[layer])) {
      const bool encrypted = t.is_write;
      probe->on_transfer(t.line, t.bytes, t.is_write, encrypted);
      reference_probe.on_transfer(t.line, t.bytes, t.is_write, encrypted);
    }
    if (layer % 3 != 1) probe->on_finish();
    auditor.merge_probe(std::move(probe), layer);
    if (layer == 4) {
      EXPECT_GT(auditor.ledger().total_bytes(), 0u);
    }
  }
  reference.seal();
  const TaintLedger& folded = auditor.ledger();
  EXPECT_EQ(folded.digest(), reference.digest());
  EXPECT_EQ(folded.lines().size(), reference.lines().size());
  EXPECT_EQ(folded.cells().size(), reference.cells().size());
  EXPECT_EQ(folded.total_bytes(), reference.total_bytes());
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
