// Byte-provenance taint tracking for bus traffic.
//
// Every byte that crosses the DRAM bus is tagged at its source: plaintext
// secure weight, weight ciphertext, plaintext activation, activation
// ciphertext, counter metadata, or untagged. A TaintProbe classifies each
// transfer against the layout's directory (core::ModelLayout, built by
// verify::build_input exactly as the runner builds it) and accumulates a per-line,
// per-direction TaintLedger; in functional mode it additionally captures the
// raw wire image of each line for known-plaintext cross-checks. The
// scheme.* rule family (verify/scheme_checkers.hpp) proves each scheme's
// wire contract on top of the ledger.
//
// TaintAuditor plugs the probe into a timing run through
// workload::BusProbeHook: one private probe per layer task, sealed on the
// worker that ran the layer and folded strictly in spec order from the
// submitting thread, so the ledger is bitwise identical for any --jobs value.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "crypto/modes.hpp"
#include "sim/bus_probe.hpp"
#include "sim/request.hpp"
#include "util/json.hpp"
#include "verify/analysis.hpp"
#include "workload/network_runner.hpp"

namespace sealdl::verify {

/// Source tag of a byte observed on the bus.
enum class TaintClass : std::uint8_t {
  kWeightPlain = 0,   ///< model weight bytes, plaintext on the wire
  kWeightCipher = 1,  ///< model weight bytes, ciphertext on the wire
  kFmapPlain = 2,     ///< activation (feature-map) bytes, plaintext
  kFmapCipher = 3,    ///< activation bytes, ciphertext
  kCounterMeta = 4,   ///< counter-mode metadata (reserved high region)
  kUntagged = 5,      ///< address outside every known region
};

inline constexpr std::size_t kTaintClassCount = 6;

[[nodiscard]] const char* taint_class_name(TaintClass cls);

/// Per-direction byte counts, indexed by TaintClass.
struct TaintCounts {
  std::array<std::uint64_t, kTaintClassCount> read{};
  std::array<std::uint64_t, kTaintClassCount> write{};
};

/// The bytes of one (line, direction, class): the unit a ledger stores.
/// Sealed cells are ordered by (line, is_write, cls), so a line's cells are
/// adjacent, reads before writes, in TaintCounts index order.
struct TaintCell {
  sim::Addr line = 0;
  std::uint64_t bytes = 0;
  TaintClass cls = TaintClass::kUntagged;
  bool is_write = false;
};

/// Per-line, per-direction taint accounting for one run (or one layer task).
///
/// record() accumulates into an open-addressing table with no ordering;
/// seal() sorts it once into a flat vector of cells and folds it into what
/// was sealed before. Everything that reads lines — checking, JSON
/// rendering, digesting — reads the sealed cells, so it is deterministic,
/// and it throws std::logic_error while recorded cells are still open.
/// Totals are kept at record time and are readable in either state.
class TaintLedger {
 public:
  /// Raw wire image of a line (functional mode only); the last transfer wins,
  /// which mirrors what a bus snooper's most recent observation holds.
  struct WireImage {
    std::array<std::uint8_t, crypto::kLineBytes> bytes{};
    std::uint32_t size = 0;  ///< observed bytes (<= kLineBytes)
    bool encrypted = false;  ///< the transfer's encrypted flag
  };

  /// The sealed cells grouped per line, in address order: iterating yields
  /// (line address, TaintCounts) pairs assembled from each line's cells.
  class LineView {
   public:
    class Iterator {
     public:
      using value_type = std::pair<sim::Addr, TaintCounts>;

      [[nodiscard]] value_type operator*() const;
      Iterator& operator++();
      bool operator==(const Iterator& other) const { return at_ == other.at_; }

     private:
      friend class LineView;
      Iterator(const TaintCell* at, const TaintCell* end) : at_(at), end_(end) {}
      const TaintCell* at_ = nullptr;
      const TaintCell* end_ = nullptr;
    };

    explicit LineView(std::span<const TaintCell> cells) : cells_(cells) {}
    [[nodiscard]] Iterator begin() const {
      return {cells_.data(), cells_.data() + cells_.size()};
    }
    [[nodiscard]] Iterator end() const {
      return {cells_.data() + cells_.size(), cells_.data() + cells_.size()};
    }
    /// Distinct lines (one pass over the cells).
    [[nodiscard]] std::size_t size() const;

   private:
    std::span<const TaintCell> cells_;
  };

  void record(sim::Addr line_addr, std::uint32_t bytes, bool is_write,
              TaintClass cls);
  void capture(sim::Addr line_addr, std::span<const std::uint8_t> wire,
               bool encrypted);

  /// Sorts the open cells and folds them into the sealed ones. Idempotent;
  /// recording may continue afterwards and a later seal() folds the rest.
  void seal();
  [[nodiscard]] bool sealed() const { return open_count_ == 0; }

  /// Folds `other` into this ledger, sealing both: per-line counts add, and
  /// `other`'s captures overwrite this ledger's (so folding layer ledgers in
  /// spec order keeps the last observation). A linear merge of the two
  /// sorted cell vectors.
  void merge_from(TaintLedger other);

  [[nodiscard]] std::span<const TaintCell> cells() const;
  [[nodiscard]] LineView lines() const { return LineView(cells()); }
  [[nodiscard]] const std::map<sim::Addr, WireImage>& captures() const {
    return captures_;
  }
  [[nodiscard]] const TaintCounts& totals() const { return totals_; }
  /// read + write bytes of one class.
  [[nodiscard]] std::uint64_t class_bytes(TaintClass cls) const;
  /// All bytes across classes and directions.
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// FNV-1a over the sorted per-line stream: a stable fingerprint the
  /// determinism gates compare across --jobs values.
  [[nodiscard]] std::uint64_t digest() const;

  /// One JSON object value: class totals per direction, line/capture counts,
  /// and the digest. Deterministic byte-for-byte.
  void write_json(util::JsonWriter& json) const;

 private:
  std::vector<TaintCell> cells_;  ///< sealed, sorted, one per key
  /// Open-addressing table of recorded, unsealed cells; a free slot holds an
  /// out-of-range class. Its size is zero or a power of two.
  std::vector<TaintCell> open_;
  std::size_t open_count_ = 0;
  std::map<sim::Addr, WireImage> captures_;
  TaintCounts totals_;
};

/// BusProbe that classifies transfers against the layout's directory and
/// records them into a ledger. Classification is pure (no mutable state
/// beyond the ledger), so one probe per layer task plus an ordered merge
/// keeps the aggregate jobs-invariant.
class TaintProbe : public sim::BusProbe {
 public:
  /// Both pointers are borrowed and must outlive the probe.
  TaintProbe(const AnalysisInput* input, TaintLedger* ledger)
      : input_(input), ledger_(ledger) {}

  void on_transfer(sim::Addr line_addr, std::uint32_t bytes, bool is_write,
                   bool encrypted) override;
  void on_data(sim::Addr line_addr, std::span<const std::uint8_t> wire_bytes,
               bool is_write, bool encrypted) override;
  /// Seals the ledger, on the thread that ran the traffic.
  void on_finish() override { ledger_->seal(); }

  /// Source tag for a line: counter region -> kCounterMeta, then the
  /// layout's directory decides weight/fmap/untagged and `encrypted` picks
  /// the variant.
  [[nodiscard]] TaintClass classify(sim::Addr line_addr, bool encrypted) const;

 private:
  const AnalysisInput* input_;
  TaintLedger* ledger_;
};

/// workload::BusProbeHook implementation: attaches one recording TaintProbe
/// per layer task and folds the task-private ledgers back in spec order.
/// All hook methods run on the submitting thread (see BusProbeHook), so the
/// auditor needs no locks and its ledger is identical for any --jobs.
///
/// Each layer ledger arrives sealed by the worker that ran the layer (the
/// runner calls BusProbe::on_finish there). merge_probe() folds it in
/// binary-counter fashion: it merges with the newest pending ledger while
/// that one is no larger, so every cell is merged O(log layers) times and
/// most merging overlaps the layers still simulating. ledger() folds what
/// remains.
class TaintAuditor final : public workload::BusProbeHook {
 public:
  /// `input` is borrowed; it must describe the same specs/plan options the
  /// audited run uses (verify::build_input reproduces the runner's layout
  /// bit-identically, which is what makes external classification sound).
  /// Under glibc it fixes the process's mmap threshold at 1 MiB (taint.cpp).
  explicit TaintAuditor(const AnalysisInput* input);

  std::unique_ptr<sim::BusProbe> make_probe(std::size_t spec_index) override;
  void merge_probe(std::unique_ptr<sim::BusProbe> probe,
                   std::size_t spec_index) override;

  /// Folds every layer ledger handed back so far into one and returns it.
  /// The reference stays valid until the next merge_probe() or ledger().
  [[nodiscard]] const TaintLedger& ledger();
  [[nodiscard]] const AnalysisInput& input() const { return *input_; }

 private:
  const AnalysisInput* input_;
  /// Sealed ledgers awaiting the fold, oldest first; each is larger than
  /// the one after it.
  std::vector<TaintLedger> pending_;
};

}  // namespace sealdl::verify
