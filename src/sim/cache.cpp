#include "sim/cache.hpp"

#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace sealdl::sim {

SetAssocCache::SetAssocCache(std::size_t capacity_bytes, int assoc, int line_bytes)
    : sets_(capacity_bytes / (static_cast<std::size_t>(assoc) * static_cast<std::size_t>(line_bytes))),
      assoc_(assoc),
      line_bytes_(line_bytes) {
  if (sets_ == 0 || capacity_bytes % (static_cast<std::size_t>(assoc) * static_cast<std::size_t>(line_bytes)) != 0) {
    throw std::invalid_argument("cache capacity must be a positive multiple of assoc*line");
  }
  ways_.resize(sets_ * static_cast<std::size_t>(assoc_));
  const auto line = static_cast<std::size_t>(line_bytes_);
  pow2_ = std::has_single_bit(line) && std::has_single_bit(sets_);
  if (pow2_) {
    line_shift_ = std::countr_zero(line);
    tag_shift_ = line_shift_ + std::countr_zero(sets_);
    set_mask_ = static_cast<Addr>(sets_ - 1);
  }
}

CacheResult SetAssocCache::access(Addr addr, bool mark_dirty) {
  const std::size_t base = set_index(addr) * static_cast<std::size_t>(assoc_);
  const Addr tag = tag_of(addr);
  for (int w = 0; w < assoc_; ++w) {
    Way& way = ways_[base + static_cast<std::size_t>(w)];
    if (way.valid && way.tag == tag) {
      way.lru = ++clock_;
      way.dirty = way.dirty || mark_dirty;
      hits_.record(true);
      return {true, std::nullopt};
    }
  }
  hits_.record(false);
  return {false, std::nullopt};
}

CacheResult SetAssocCache::insert(Addr addr, bool dirty) {
  const std::size_t set = set_index(addr);
  const std::size_t base = set * static_cast<std::size_t>(assoc_);
  const Addr tag = tag_of(addr);
  // The LRU candidate only counts when every way is valid.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t invalid = kNone;
  std::size_t lru = base;
  for (int w = 0; w < assoc_; ++w) {
    const std::size_t i = base + static_cast<std::size_t>(w);
    const Way& way = ways_[i];
    if (!way.valid) {
      if (invalid == kNone) invalid = i;
    } else if (way.tag == tag) {
      return {true, std::nullopt};
    } else if (way.lru < ways_[lru].lru) {
      lru = i;
    }
  }
  Way& way = ways_[invalid != kNone ? invalid : lru];
  std::optional<Addr> writeback;
  if (way.valid && way.dirty) {
    // Reconstruct the victim's address from its tag and this set index.
    writeback = (way.tag * sets_ + set) * static_cast<Addr>(line_bytes_);
  }
  way.valid = true;
  way.dirty = dirty;
  way.tag = tag;
  way.lru = ++clock_;
  return {false, writeback};
}

bool SetAssocCache::contains(Addr addr) const {
  const std::size_t base = set_index(addr) * static_cast<std::size_t>(assoc_);
  const Addr tag = tag_of(addr);
  for (int w = 0; w < assoc_; ++w) {
    const Way& way = ways_[base + static_cast<std::size_t>(w)];
    if (way.valid && way.tag == tag) return true;
  }
  return false;
}

std::optional<Addr> SetAssocCache::invalidate(Addr addr) {
  const std::size_t set = set_index(addr);
  const std::size_t base = set * static_cast<std::size_t>(assoc_);
  const Addr tag = tag_of(addr);
  for (int w = 0; w < assoc_; ++w) {
    Way& way = ways_[base + static_cast<std::size_t>(w)];
    if (way.valid && way.tag == tag) {
      way.valid = false;
      if (way.dirty) return (way.tag * sets_ + set) * static_cast<Addr>(line_bytes_);
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::vector<Addr> SetAssocCache::flush_dirty() {
  std::vector<Addr> out;
  for (std::size_t set = 0; set < sets_; ++set) {
    for (int w = 0; w < assoc_; ++w) {
      Way& way = ways_[set * static_cast<std::size_t>(assoc_) + static_cast<std::size_t>(w)];
      if (way.valid && way.dirty) {
        out.push_back((way.tag * sets_ + set) * static_cast<Addr>(line_bytes_));
        way.dirty = false;
      }
    }
  }
  return out;
}

}  // namespace sealdl::sim
