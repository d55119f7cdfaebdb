// Generic set-associative tag-array cache with LRU replacement.
//
// Used for the per-channel L2 slices and for the memory controllers' counter
// caches. Only tags and state are modeled (the timing simulator never carries
// payloads; the functional path lives in sim/functional_memory.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/request.hpp"
#include "util/stats.hpp"

namespace sealdl::sim {

/// Outcome of a cache access.
struct CacheResult {
  bool hit = false;
  /// Address of a dirty line that had to be written back to make room
  /// (only set when an insertion evicted a dirty victim).
  std::optional<Addr> writeback;
};

class SetAssocCache {
 public:
  /// `capacity_bytes` must be a multiple of `line_bytes * assoc`.
  SetAssocCache(std::size_t capacity_bytes, int assoc, int line_bytes);

  /// Looks up `addr`; on hit updates LRU (and dirty if `mark_dirty`).
  /// Does NOT allocate on miss — call insert() for that.
  CacheResult access(Addr addr, bool mark_dirty);

  /// Allocates a line for `addr`, evicting the first invalid way, else the
  /// least recently used one (ties to the earliest way). Returns the dirty
  /// victim's address if one was displaced. One scan of the set also checks
  /// residency: an already-resident line is left untouched (no LRU, dirty or
  /// hit-rate update) and reported as `hit`.
  CacheResult insert(Addr addr, bool dirty);

  /// True if `addr`'s line is currently resident (no LRU update).
  [[nodiscard]] bool contains(Addr addr) const;

  /// Invalidates the line if present; returns its address if it was dirty.
  std::optional<Addr> invalidate(Addr addr);

  /// Drains every dirty line (end-of-simulation writeback flush).
  std::vector<Addr> flush_dirty();

  [[nodiscard]] const util::HitRate& hit_rate() const { return hits_; }
  [[nodiscard]] std::size_t num_sets() const { return sets_; }
  [[nodiscard]] int line_bytes() const { return line_bytes_; }

 private:
  struct Way {
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;  ///< larger = more recently used
  };

  // Every access splits the address; with power-of-two line and set counts
  // (the L2 slices) that is a shift and a mask, otherwise (the 96-set
  // counter cache) a division.
  [[nodiscard]] std::size_t set_index(Addr addr) const {
    if (pow2_) return static_cast<std::size_t>((addr >> line_shift_) & set_mask_);
    return (addr / static_cast<Addr>(line_bytes_)) % sets_;
  }
  [[nodiscard]] Addr tag_of(Addr addr) const {
    if (pow2_) return addr >> tag_shift_;
    return addr / static_cast<Addr>(line_bytes_) / sets_;
  }

  std::size_t sets_;
  int assoc_;
  int line_bytes_;
  bool pow2_ = false;  ///< line_bytes_ and sets_ are both powers of two
  int line_shift_ = 0;
  int tag_shift_ = 0;
  Addr set_mask_ = 0;
  std::vector<Way> ways_;  ///< sets_ * assoc_, row-major by set
  std::uint64_t clock_ = 0;
  util::HitRate hits_;
};

}  // namespace sealdl::sim
