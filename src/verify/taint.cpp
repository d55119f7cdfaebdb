#include "verify/taint.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "sim/mem_controller.hpp"

namespace sealdl::verify {

namespace {

/// Marks a free slot of the open-addressing table.
constexpr auto kFreeSlot = static_cast<TaintClass>(0xff);

/// Initial open-table size; it doubles once three quarters are taken.
constexpr std::size_t kMinOpenSlots = 1024;

bool same_key(const TaintCell& a, const TaintCell& b) {
  return a.line == b.line && a.is_write == b.is_write && a.cls == b.cls;
}

bool key_less(const TaintCell& a, const TaintCell& b) {
  if (a.line != b.line) return a.line < b.line;
  if (a.is_write != b.is_write) return b.is_write;
  return a.cls < b.cls;
}

std::size_t slot_hash(sim::Addr line, bool is_write, TaintClass cls) {
  std::uint64_t h = line * 0x9E3779B97F4A7C15ULL;
  h ^= (static_cast<std::uint64_t>(cls) * 2 + (is_write ? 1 : 0)) *
       0xC2B2AE3D27D4EB4FULL;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

/// Places `cell` into `table` (a power-of-two size with a free slot),
/// adding its bytes to a cell of the same key. Returns true if it took a
/// free slot.
bool place(std::vector<TaintCell>& table, const TaintCell& cell) {
  const std::size_t mask = table.size() - 1;
  for (std::size_t i = slot_hash(cell.line, cell.is_write, cell.cls) & mask;;
       i = (i + 1) & mask) {
    TaintCell& slot = table[i];
    if (slot.cls == kFreeSlot) {
      slot = cell;
      return true;
    }
    if (same_key(slot, cell)) {
      slot.bytes += cell.bytes;
      return false;
    }
  }
}

/// Merges two sorted cell vectors, adding the bytes of equal keys.
std::vector<TaintCell> merge_cells(const std::vector<TaintCell>& a,
                                   const std::vector<TaintCell>& b) {
  std::vector<TaintCell> out;
  out.reserve(a.size() + b.size());
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (key_less(*i, *j)) {
      out.push_back(*i++);
    } else if (key_less(*j, *i)) {
      out.push_back(*j++);
    } else {
      out.push_back(*i++);
      out.back().bytes += (j++)->bytes;
    }
  }
  out.insert(out.end(), i, a.end());
  out.insert(out.end(), j, b.end());
  return out;
}

}  // namespace

const char* taint_class_name(TaintClass cls) {
  switch (cls) {
    case TaintClass::kWeightPlain: return "weight_plain";
    case TaintClass::kWeightCipher: return "weight_cipher";
    case TaintClass::kFmapPlain: return "fmap_plain";
    case TaintClass::kFmapCipher: return "fmap_cipher";
    case TaintClass::kCounterMeta: return "counter_meta";
    case TaintClass::kUntagged: return "untagged";
  }
  return "unknown";
}

TaintLedger::LineView::Iterator::value_type
TaintLedger::LineView::Iterator::operator*() const {
  value_type line{at_->line, {}};
  for (const TaintCell* cell = at_; cell != end_ && cell->line == at_->line;
       ++cell) {
    auto& counts = cell->is_write ? line.second.write : line.second.read;
    counts[static_cast<std::size_t>(cell->cls)] += cell->bytes;
  }
  return line;
}

TaintLedger::LineView::Iterator& TaintLedger::LineView::Iterator::operator++() {
  const sim::Addr line = at_->line;
  while (at_ != end_ && at_->line == line) ++at_;
  return *this;
}

std::size_t TaintLedger::LineView::size() const {
  std::size_t lines = 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (i == 0 || cells_[i].line != cells_[i - 1].line) ++lines;
  }
  return lines;
}

void TaintLedger::record(sim::Addr line_addr, std::uint32_t bytes,
                         bool is_write, TaintClass cls) {
  const auto idx = static_cast<std::size_t>(cls);
  (is_write ? totals_.write : totals_.read)[idx] += bytes;
  if (4 * (open_count_ + 1) > 3 * open_.size()) {
    std::vector<TaintCell> grown(std::max(kMinOpenSlots, 2 * open_.size()),
                                 TaintCell{.cls = kFreeSlot});
    for (const TaintCell& cell : open_) {
      if (cell.cls != kFreeSlot) place(grown, cell);
    }
    open_ = std::move(grown);
  }
  if (place(open_, {line_addr, bytes, cls, is_write})) ++open_count_;
}

void TaintLedger::capture(sim::Addr line_addr,
                          std::span<const std::uint8_t> wire, bool encrypted) {
  WireImage& image = captures_[line_addr];
  image.size = static_cast<std::uint32_t>(
      std::min<std::size_t>(wire.size(), image.bytes.size()));
  std::copy_n(wire.begin(), image.size, image.bytes.begin());
  image.encrypted = encrypted;
}

void TaintLedger::seal() {
  if (sealed()) return;
  std::vector<TaintCell> fresh;
  fresh.reserve(open_count_);
  for (const TaintCell& cell : open_) {
    if (cell.cls != kFreeSlot) fresh.push_back(cell);
  }
  open_ = {};
  open_count_ = 0;
  std::sort(fresh.begin(), fresh.end(), key_less);
  cells_ = cells_.empty() ? std::move(fresh) : merge_cells(cells_, fresh);
}

void TaintLedger::merge_from(TaintLedger other) {
  seal();
  other.seal();
  for (std::size_t i = 0; i < kTaintClassCount; ++i) {
    totals_.read[i] += other.totals_.read[i];
    totals_.write[i] += other.totals_.write[i];
  }
  cells_ = cells_.empty() ? std::move(other.cells_)
                          : merge_cells(cells_, other.cells_);
  for (const auto& [addr, image] : other.captures_) captures_[addr] = image;
}

std::span<const TaintCell> TaintLedger::cells() const {
  if (!sealed()) {
    throw std::logic_error("taint ledger read before seal()");
  }
  return cells_;
}

std::uint64_t TaintLedger::class_bytes(TaintClass cls) const {
  const auto idx = static_cast<std::size_t>(cls);
  return totals_.read[idx] + totals_.write[idx];
}

std::uint64_t TaintLedger::total_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kTaintClassCount; ++i) {
    total += totals_.read[i] + totals_.write[i];
  }
  return total;
}

std::uint64_t TaintLedger::digest() const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  const LineView view = lines();
  mix(view.size());
  for (const auto& [addr, counts] : view) {
    mix(addr);
    for (const std::uint64_t v : counts.read) mix(v);
    for (const std::uint64_t v : counts.write) mix(v);
  }
  return hash;
}

void TaintLedger::write_json(util::JsonWriter& json) const {
  json.begin_object();
  json.field("lines", static_cast<std::uint64_t>(lines().size()));
  json.field("captures", static_cast<std::uint64_t>(captures_.size()));
  json.field("total_bytes", total_bytes());
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest()));
  json.field("digest", buf);
  json.key("classes").begin_object();
  for (std::size_t i = 0; i < kTaintClassCount; ++i) {
    json.key(taint_class_name(static_cast<TaintClass>(i))).begin_object();
    json.field("read", totals_.read[i]);
    json.field("write", totals_.write[i]);
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

void TaintProbe::on_transfer(sim::Addr line_addr, std::uint32_t bytes,
                             bool is_write, bool encrypted) {
  ledger_->record(line_addr, bytes, is_write, classify(line_addr, encrypted));
}

void TaintProbe::on_data(sim::Addr line_addr,
                         std::span<const std::uint8_t> wire_bytes,
                         bool is_write, bool encrypted) {
  (void)is_write;
  ledger_->capture(line_addr, wire_bytes, encrypted);
}

TaintClass TaintProbe::classify(sim::Addr line_addr, bool encrypted) const {
  if (line_addr >= sim::kCounterRegionBase) return TaintClass::kCounterMeta;
  const core::Region* region = input_->layout->region_at(line_addr);
  if (region == nullptr) return TaintClass::kUntagged;
  if (region->kind == core::Region::Kind::kWeights) {
    return encrypted ? TaintClass::kWeightCipher : TaintClass::kWeightPlain;
  }
  return encrypted ? TaintClass::kFmapCipher : TaintClass::kFmapPlain;
}

namespace {

/// One layer task's private probe + ledger; handed back whole to the auditor.
class RecordingTaintProbe final : public sim::BusProbe {
 public:
  explicit RecordingTaintProbe(const AnalysisInput* input)
      : probe_(input, &ledger_) {}

  void on_transfer(sim::Addr line_addr, std::uint32_t bytes, bool is_write,
                   bool encrypted) override {
    probe_.on_transfer(line_addr, bytes, is_write, encrypted);
  }
  void on_data(sim::Addr line_addr, std::span<const std::uint8_t> wire_bytes,
               bool is_write, bool encrypted) override {
    probe_.on_data(line_addr, wire_bytes, is_write, encrypted);
  }
  void on_finish() override { probe_.on_finish(); }

  /// The recorded ledger, moved out; sealed here if no on_finish() came
  /// (a wrapping probe may not forward it).
  TaintLedger take_ledger() {
    ledger_.seal();
    return std::move(ledger_);
  }

 private:
  TaintLedger ledger_;
  TaintProbe probe_;
};

}  // namespace

TaintAuditor::TaintAuditor(const AnalysisInput* input) : input_(input) {
#if defined(__GLIBC__)
  // Layer ledgers are multi-megabyte tables freed on worker threads. glibc
  // raises its mmap threshold after the first such free and then keeps later
  // tables in per-thread arenas, so peak memory hung on how layer tasks
  // interleaved; a fixed threshold unmaps every freed table at once.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
}

std::unique_ptr<sim::BusProbe> TaintAuditor::make_probe(std::size_t spec_index) {
  (void)spec_index;
  return std::make_unique<RecordingTaintProbe>(input_);
}

void TaintAuditor::merge_probe(std::unique_ptr<sim::BusProbe> probe,
                               std::size_t spec_index) {
  (void)spec_index;
  TaintLedger run = static_cast<RecordingTaintProbe*>(probe.get())->take_ledger();
  while (!pending_.empty() &&
         pending_.back().cells().size() <= run.cells().size()) {
    pending_.back().merge_from(std::move(run));
    run = std::move(pending_.back());
    pending_.pop_back();
  }
  pending_.push_back(std::move(run));
}

const TaintLedger& TaintAuditor::ledger() {
  if (pending_.empty()) pending_.emplace_back();
  while (pending_.size() > 1) {
    TaintLedger newest = std::move(pending_.back());
    pending_.pop_back();
    pending_.back().merge_from(std::move(newest));
  }
  return pending_.front();
}

}  // namespace sealdl::verify
