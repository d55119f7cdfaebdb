// Simulator building blocks: caches, MSHR table, L2 slice, secure map,
// queues, throughput pipes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <list>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/cache.hpp"
#include "sim/l2_slice.hpp"
#include "sim/mem_controller.hpp"
#include "sim/mshr_table.hpp"
#include "sim/pipes.hpp"
#include "sim/secure_map.hpp"

namespace sealdl::sim {
namespace {

// ----------------------------------------------------------------- Cache ---

TEST(Cache, MissThenHit) {
  SetAssocCache cache(4096, 4, 128);
  EXPECT_FALSE(cache.access(0x1000, false).hit);
  cache.insert(0x1000, false);
  EXPECT_TRUE(cache.access(0x1000, false).hit);
}

TEST(Cache, LruEvictsOldest) {
  // 2 sets * 2 ways * 128B = 512B cache; same-set lines are 256B apart.
  SetAssocCache cache(512, 2, 128);
  cache.insert(0x0000, false);
  cache.insert(0x0100, false);   // same set (set stride = 2 lines)
  cache.access(0x0000, false);   // touch A: B becomes LRU
  cache.insert(0x0200, false);   // evicts B
  EXPECT_TRUE(cache.contains(0x0000));
  EXPECT_FALSE(cache.contains(0x0100));
  EXPECT_TRUE(cache.contains(0x0200));
}

TEST(Cache, DirtyEvictionReportsWritebackAddress) {
  SetAssocCache cache(512, 2, 128);
  cache.insert(0x0000, true);
  cache.insert(0x0100, false);
  const auto result = cache.insert(0x0200, false);  // evicts dirty 0x0000
  ASSERT_TRUE(result.writeback.has_value());
  EXPECT_EQ(*result.writeback, 0x0000u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  SetAssocCache cache(512, 2, 128);
  cache.insert(0x0000, false);
  cache.insert(0x0100, false);
  EXPECT_FALSE(cache.insert(0x0200, false).writeback.has_value());
}

TEST(Cache, AccessMarksDirty) {
  SetAssocCache cache(512, 2, 128);
  cache.insert(0x0000, false);
  cache.access(0x0000, /*mark_dirty=*/true);
  cache.insert(0x0100, false);
  const auto result = cache.insert(0x0200, false);
  ASSERT_TRUE(result.writeback.has_value());
  EXPECT_EQ(*result.writeback, 0x0000u);
}

TEST(Cache, InvalidateReturnsDirtyAddress) {
  SetAssocCache cache(4096, 4, 128);
  cache.insert(0x1000, true);
  const auto dirty = cache.invalidate(0x1000);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_EQ(*dirty, 0x1000u);
  EXPECT_FALSE(cache.contains(0x1000));
  EXPECT_FALSE(cache.invalidate(0x1000).has_value());
}

TEST(Cache, FlushDirtyReturnsAllDirtyLinesOnce) {
  SetAssocCache cache(4096, 4, 128);
  cache.insert(0x1000, true);
  cache.insert(0x2000, true);
  cache.insert(0x3000, false);
  auto dirty = cache.flush_dirty();
  EXPECT_EQ(dirty.size(), 2u);
  EXPECT_TRUE(cache.flush_dirty().empty());
}

TEST(Cache, HitRateAccounting) {
  SetAssocCache cache(4096, 4, 128);
  cache.access(0x0, false);  // miss
  cache.insert(0x0, false);
  cache.access(0x0, false);  // hit
  cache.access(0x0, false);  // hit
  EXPECT_EQ(cache.hit_rate().hits, 2u);
  EXPECT_EQ(cache.hit_rate().total, 3u);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(SetAssocCache(100, 4, 128), std::invalid_argument);
}

class CacheGeometry : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheGeometry, FillsToCapacityWithoutEviction) {
  const auto [assoc, lines] = GetParam();
  SetAssocCache cache(static_cast<std::size_t>(lines) * 128, assoc, 128);
  // Insert exactly `lines` distinct lines walking sets uniformly.
  for (int i = 0; i < lines; ++i) {
    const auto result = cache.insert(static_cast<Addr>(i) * 128, true);
    EXPECT_FALSE(result.writeback.has_value()) << "line " << i;
  }
  for (int i = 0; i < lines; ++i) {
    EXPECT_TRUE(cache.contains(static_cast<Addr>(i) * 128));
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(std::make_tuple(1, 8),
                                           std::make_tuple(2, 16),
                                           std::make_tuple(4, 32),
                                           std::make_tuple(8, 64)));

/// Naive LRU reference: per set, resident lines in recency order (front =
/// most recent). Way positions are not observable through the cache's API,
/// so "first invalid way, else least recently used" reduces to "evict the
/// back of a full set".
class ReferenceCache {
 public:
  ReferenceCache(std::size_t sets, int assoc, int line_bytes)
      : sets_(sets), assoc_(static_cast<std::size_t>(assoc)),
        line_(static_cast<Addr>(line_bytes)), lines_(sets) {}

  bool access(Addr addr, bool mark_dirty) {
    auto& set = set_of(addr);
    const auto it = find(set, addr);
    if (it == set.end()) return false;
    Line line = *it;
    line.dirty = line.dirty || mark_dirty;
    set.erase(it);
    set.push_front(line);
    return true;
  }

  /// Returns {line was already resident, dirty victim's address}.
  std::pair<bool, std::optional<Addr>> insert(Addr addr, bool dirty) {
    auto& set = set_of(addr);
    if (find(set, addr) != set.end()) return {true, std::nullopt};
    std::optional<Addr> writeback;
    if (set.size() == assoc_) {
      if (set.back().dirty) writeback = set.back().addr;
      set.pop_back();
    }
    set.push_front({addr / line_ * line_, dirty});
    return {false, writeback};
  }

  std::optional<Addr> invalidate(Addr addr) {
    auto& set = set_of(addr);
    const auto it = find(set, addr);
    if (it == set.end()) return std::nullopt;
    const Line line = *it;
    set.erase(it);
    return line.dirty ? std::optional<Addr>(line.addr) : std::nullopt;
  }

  std::vector<Addr> dirty_lines() const {
    std::vector<Addr> out;
    for (const auto& set : lines_) {
      for (const Line& line : set) {
        if (line.dirty) out.push_back(line.addr);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct Line {
    Addr addr;
    bool dirty;
  };
  std::list<Line>& set_of(Addr addr) { return lines_[(addr / line_) % sets_]; }
  std::list<Line>::iterator find(std::list<Line>& set, Addr addr) {
    return std::find_if(set.begin(), set.end(), [&](const Line& line) {
      return line.addr == addr / line_ * line_;
    });
  }

  std::size_t sets_;
  std::size_t assoc_;
  Addr line_;
  std::vector<std::list<Line>> lines_;
};

/// Drives the cache and the reference with one seeded stream of accesses,
/// inserts on miss, blind inserts (the L2 fill path) and invalidations (which
/// leave invalid ways ahead of resident ones) over a pool of lines twice the
/// capacity, with high address bits set and byte offsets within the line.
/// Compares every hit/miss and write-back address plus the final dirty set.
void check_against_reference(std::size_t capacity, int assoc, int line_bytes,
                             std::size_t expect_sets) {
  SetAssocCache cache(capacity, assoc, line_bytes);
  ASSERT_EQ(cache.num_sets(), expect_sets);
  ReferenceCache ref(expect_sets, assoc, line_bytes);
  std::mt19937_64 rng(20210705);
  std::vector<Addr> pool;
  const std::size_t lines = 2 * capacity / static_cast<std::size_t>(line_bytes);
  for (std::size_t i = 0; i < lines; ++i) {
    pool.push_back((rng() >> 20) / static_cast<Addr>(line_bytes) *
                   static_cast<Addr>(line_bytes));
  }
  std::uint64_t hits = 0;
  for (int step = 0; step < 200000; ++step) {
    const Addr addr = pool[rng() % pool.size()] + rng() % static_cast<Addr>(line_bytes);
    const bool dirty = rng() % 3 == 0;
    const auto op = rng() % 20;
    if (op == 0) {
      ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr)) << "step " << step;
      continue;
    }
    if (op < 5) {
      const auto got = cache.insert(addr, dirty);
      const auto want = ref.insert(addr, dirty);
      ASSERT_EQ(got.hit, want.first) << "step " << step;
      ASSERT_EQ(got.writeback, want.second) << "step " << step;
      continue;
    }
    const bool hit = cache.access(addr, dirty).hit;
    ASSERT_EQ(hit, ref.access(addr, dirty)) << "step " << step;
    if (hit) {
      ++hits;
      continue;
    }
    const auto got = cache.insert(addr, dirty);
    const auto want = ref.insert(addr, dirty);
    ASSERT_EQ(got.writeback, want.second) << "step " << step;
  }
  EXPECT_EQ(cache.hit_rate().hits, hits);
  EXPECT_GT(hits, 0u);
  std::vector<Addr> flushed = cache.flush_dirty();
  std::sort(flushed.begin(), flushed.end());
  EXPECT_EQ(flushed, ref.dirty_lines());
}

TEST(CacheReference, L2SliceGeometryShiftMaskPath) {
  // 128 KB, 8-way, 128 B lines: 128 sets, both powers of two.
  check_against_reference(128 * 1024, 8, 128, 128);
}

TEST(CacheReference, CounterCacheGeometryDivisionPath) {
  // 96 KB, 8-way, 128 B lines: 96 sets, the division path.
  check_against_reference(96 * 1024, 8, 128, 96);
}

TEST(Cache, InsertLeavesResidentLineUntouched) {
  SetAssocCache cache(512, 2, 128);
  cache.insert(0x0000, true);
  const auto again = cache.insert(0x0000, false);
  EXPECT_TRUE(again.hit);
  EXPECT_EQ(cache.hit_rate().total, 0u);  // not an access
  EXPECT_EQ(cache.flush_dirty(), std::vector<Addr>{0x0000});  // still dirty
}

// ------------------------------------------------------------- MshrTable ---

TEST(MshrTable, MergesManyWaitersInArrivalOrder) {
  MshrTable table;
  const Addr line = 0x4000;
  for (int w = 0; w < 100; ++w) {
    EXPECT_EQ(table.add(line, Waiter{w % 15, w}), w == 0) << "waiter " << w;
  }
  EXPECT_EQ(table.size(), 1u);
  const auto waiters = table.take(line);
  ASSERT_EQ(waiters.size(), 100u);
  for (int w = 0; w < 100; ++w) {
    EXPECT_EQ(waiters[static_cast<std::size_t>(w)].warp_id, w);
    EXPECT_EQ(waiters[static_cast<std::size_t>(w)].sm_id, w % 15);
  }
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(table.take(line).empty());
}

TEST(MshrTable, EraseFromMiddleOfChainKeepsLaterLinesReachable) {
  MshrTable table;
  // Slots h..h+2 hold three lines homed on h; `behind`, homed on h+1, is
  // pushed to h+3 and must shift back with the chain; `settled`, homed on
  // h+4 and sitting there, must not move ahead of its home.
  const std::size_t mask = table.capacity() - 1;
  const std::size_t home = table.home(0x80);
  std::vector<Addr> chain;
  Addr behind = 0, settled = 0;
  for (Addr line = 0x80; chain.size() < 3 || behind == 0 || settled == 0;
       line += 0x80) {
    const std::size_t h = table.home(line);
    if (h == home && chain.size() < 3) chain.push_back(line);
    if (h == ((home + 1) & mask) && behind == 0) behind = line;
    if (h == ((home + 4) & mask) && settled == 0) settled = line;
  }
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_TRUE(table.add(chain[i], Waiter{0, static_cast<int>(i)}));
  }
  EXPECT_TRUE(table.add(behind, Waiter{0, 8}));
  EXPECT_TRUE(table.add(settled, Waiter{0, 9}));

  const auto middle = table.take(chain[1]);
  ASSERT_EQ(middle.size(), 1u);
  EXPECT_EQ(middle[0].warp_id, 1);
  EXPECT_FALSE(table.contains(chain[1]));
  for (const Addr line : {chain[0], chain[2], behind, settled}) {
    ASSERT_TRUE(table.contains(line)) << std::hex << line;
  }
  EXPECT_EQ(table.take(chain[2])[0].warp_id, 2);
  EXPECT_EQ(table.take(behind)[0].warp_id, 8);
  EXPECT_EQ(table.take(settled)[0].warp_id, 9);
  EXPECT_EQ(table.take(chain[0])[0].warp_id, 0);
  EXPECT_TRUE(table.empty());
}

TEST(MshrTable, GrowsPastInitialCapacity) {
  MshrTable table;
  const std::size_t count = 40 * MshrTable::kInitialSlots;
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(table.add(static_cast<Addr>(i) * 128, Waiter{1, static_cast<int>(i)}));
  }
  EXPECT_EQ(table.size(), count);
  EXPECT_GE(table.capacity(), 2 * count);
  // Drain in a shuffled order; every line keeps its own waiter.
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(7));
  for (const std::size_t i : order) {
    const auto waiters = table.take(static_cast<Addr>(i) * 128);
    ASSERT_EQ(waiters.size(), 1u) << "line " << i;
    EXPECT_EQ(waiters[0].warp_id, static_cast<int>(i));
  }
  EXPECT_TRUE(table.empty());
}

// --------------------------------------------------------------- L2Slice ---

TEST(L2Slice, WriteRacingPendingFillKeepsStoreAndWakesWaiter) {
  const GpuConfig config = GpuConfig::gtx480();
  MemoryController controller(config, /*secure_map=*/nullptr);
  L2Slice slice(config, &controller);
  const Addr line = 0x10000;
  Cycle fill_ready = 0;
  EXPECT_FALSE(slice.read(0, line, Waiter{2, 5}, &fill_ready).hit);
  EXPECT_TRUE(slice.has_pending_fills());
  slice.write(1, line);  // full-line store lands while the fill is in flight
  const auto waiters = slice.complete_fill(fill_ready, line);
  ASSERT_EQ(waiters.size(), 1u);
  EXPECT_EQ(waiters[0].sm_id, 2);
  EXPECT_EQ(waiters[0].warp_id, 5);
  EXPECT_FALSE(slice.has_pending_fills());
  // The fill did not overwrite the stored line: it is resident and dirty.
  Cycle unused = 0;
  EXPECT_TRUE(slice.read(fill_ready + 1, line, Waiter{0, 0}, &unused).hit);
  const std::uint64_t before = controller.write_bytes();
  slice.flush(fill_ready + 2);
  EXPECT_EQ(controller.write_bytes() - before,
            static_cast<std::uint64_t>(config.line_bytes));
}

TEST(L2Slice, PendingFillsClearAfterTheLastFill) {
  const GpuConfig config = GpuConfig::gtx480();
  MemoryController controller(config, /*secure_map=*/nullptr);
  L2Slice slice(config, &controller);
  Cycle ready_a = 0, ready_b = 0, merged = 0;
  EXPECT_FALSE(slice.read(0, 0x0, Waiter{0, 1}, &ready_a).merged);
  EXPECT_TRUE(slice.read(0, 0x0, Waiter{0, 2}, &merged).merged);
  EXPECT_FALSE(slice.read(0, 0x600, Waiter{1, 3}, &ready_b).merged);
  EXPECT_EQ(slice.complete_fill(ready_a, 0x0).size(), 2u);
  EXPECT_TRUE(slice.has_pending_fills());
  EXPECT_EQ(slice.complete_fill(ready_b, 0x600).size(), 1u);
  EXPECT_FALSE(slice.has_pending_fills());
  EXPECT_TRUE(slice.complete_fill(ready_b, 0x600).empty());
}

// ------------------------------------------------------------- SecureMap ---

TEST(SecureMap, BasicMembership) {
  SecureMap map;
  map.add_range(0x1000, 0x100);
  EXPECT_TRUE(map.is_secure(0x1000));
  EXPECT_TRUE(map.is_secure(0x10FF));
  EXPECT_FALSE(map.is_secure(0x1100));
  EXPECT_FALSE(map.is_secure(0x0FFF));
}

TEST(SecureMap, OverlappingRangesMerge) {
  SecureMap map;
  map.add_range(0x1000, 0x100);
  map.add_range(0x1080, 0x100);
  EXPECT_EQ(map.range_count(), 1u);
  EXPECT_EQ(map.secure_bytes(), 0x180u);
}

TEST(SecureMap, AdjacentRangesMerge) {
  SecureMap map;
  map.add_range(0x1000, 0x100);
  map.add_range(0x1100, 0x100);
  EXPECT_EQ(map.range_count(), 1u);
  EXPECT_EQ(map.secure_bytes(), 0x200u);
}

TEST(SecureMap, RemoveSplitsRange) {
  SecureMap map;
  map.add_range(0x1000, 0x300);
  map.remove_range(0x1100, 0x100);
  EXPECT_EQ(map.range_count(), 2u);
  EXPECT_TRUE(map.is_secure(0x1000));
  EXPECT_FALSE(map.is_secure(0x1100));
  EXPECT_FALSE(map.is_secure(0x11FF));
  EXPECT_TRUE(map.is_secure(0x1200));
  EXPECT_EQ(map.secure_bytes(), 0x200u);
}

TEST(SecureMap, LineIntersectionRule) {
  SecureMap map;
  map.add_range(0x10A0, 0x10);  // 16 secure bytes in the middle of a line
  EXPECT_TRUE(map.line_is_secure(0x1080, 128));
  EXPECT_FALSE(map.line_is_secure(0x1000, 128));
  EXPECT_FALSE(map.line_is_secure(0x1100, 128));
}

TEST(SecureMap, LineRuleAtRangeBoundaries) {
  SecureMap map;
  map.add_range(0x1080, 0x80);  // exactly one line
  EXPECT_TRUE(map.line_is_secure(0x1080, 128));
  EXPECT_FALSE(map.line_is_secure(0x1000, 128));
  EXPECT_FALSE(map.line_is_secure(0x1100, 128));
}

TEST(SecureMap, ManyDisjointRanges) {
  SecureMap map;
  for (int i = 0; i < 100; ++i) map.add_range(static_cast<Addr>(i) * 0x1000, 0x80);
  EXPECT_EQ(map.range_count(), 100u);
  EXPECT_EQ(map.secure_bytes(), 100u * 0x80u);
  EXPECT_TRUE(map.is_secure(0x5000));
  EXPECT_FALSE(map.is_secure(0x5080));
}

// ----------------------------------------------------------------- Pipes ---

TEST(DelayQueue, DelaysByLatency) {
  DelayQueue<int> q(10);
  q.push(5, 42);
  EXPECT_FALSE(q.pop_ready(14).has_value());
  const auto v = q.pop_ready(15);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
}

TEST(DelayQueue, FifoOrderPreserved) {
  DelayQueue<int> q(1);
  q.push(0, 1);
  q.push(0, 2);
  EXPECT_EQ(*q.pop_ready(1), 1);
  EXPECT_EQ(*q.pop_ready(1), 2);
  EXPECT_FALSE(q.pop_ready(100).has_value());
}

TEST(ThroughputPipe, SingleTransferLatencyPlusOccupancy) {
  ThroughputPipe pipe(16.0, 20);  // 16 B/cycle, 20-cycle latency
  // 128 bytes: 8 cycles occupancy + 20 latency, starting at cycle 0.
  EXPECT_EQ(pipe.schedule(0, 128), 28u);
}

TEST(ThroughputPipe, BackToBackTransfersSerialize) {
  ThroughputPipe pipe(16.0, 20);
  EXPECT_EQ(pipe.schedule(0, 128), 28u);
  // Second transfer starts when the pipe frees (cycle 8), not at its own
  // earliest time 0.
  EXPECT_EQ(pipe.schedule(0, 128), 36u);
}

TEST(ThroughputPipe, IdleGapResetsStart) {
  ThroughputPipe pipe(16.0, 0);
  EXPECT_EQ(pipe.schedule(0, 128), 8u);
  EXPECT_EQ(pipe.schedule(100, 128), 108u);  // starts at 100, not 8
}

TEST(ThroughputPipe, FractionalBandwidthExact) {
  ThroughputPipe pipe(42.24, 0);
  // 10 lines of 128B = 1280B at 42.24 B/cycle = 30.30.. cycles.
  Cycle done = 0;
  for (int i = 0; i < 10; ++i) done = pipe.schedule(0, 128);
  EXPECT_EQ(done, 31u);  // ceil(30.30)
  EXPECT_NEAR(pipe.busy_cycles(), 1280.0 / 42.24, 1e-9);
  EXPECT_EQ(pipe.bytes_transferred(), 1280u);
}

// A zero, negative or non-finite bandwidth would book infinite or NaN
// occupancy; the pipe refuses it in every build type.
TEST(ThroughputPipe, RejectsNonPositiveOrNonFiniteBandwidth) {
  for (const double rate : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW(ThroughputPipe(rate, 0, "AES engine"), std::invalid_argument) << rate;
  }
}

TEST(ThroughputPipe, UtilizationClamped) {
  ThroughputPipe pipe(1.0, 0);
  pipe.schedule(0, 100);
  EXPECT_DOUBLE_EQ(pipe.utilization(200), 0.5);
  EXPECT_DOUBLE_EQ(pipe.utilization(50), 1.0);
  EXPECT_DOUBLE_EQ(pipe.utilization(0), 0.0);
}

}  // namespace
}  // namespace sealdl::sim
