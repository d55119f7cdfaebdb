// Property-style randomized tests for the event-skipping fast path.
//
// Two layers of defense, both driven by seeded LCG streams (deterministic,
// no std::random_device):
//
//  1. Component level: the run loop's fast-forward assumes L2Slice and
//     MemoryController are pure reservation machines — their state changes
//     only when a request is presented, never as a function of the clock
//     merely advancing. A random request stream is therefore presented to
//     two identical memory stacks, once walking every cycle (observing the
//     profiler-facing accessors along the way and asserting they stay
//     constant between presentations) and once jumping straight between
//     event cycles. Every returned completion cycle and the final stats
//     must match exactly. If a component ever grows per-cycle behavior
//     (decay, refresh, background sweeps), this harness is the tripwire.
//
//  2. Whole-machine level: randomized warp programs (loads, stores, compute
//     bursts, barriers at random thresholds) run through GpuSimulator twice,
//     fast path vs the naive per-cycle reference, and every stats field must
//     match bit for bit — the structured-workload equivalence suite
//     (test_fast_path) can't reach op interleavings that random programs do.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/gpu_config.hpp"
#include "sim/gpu_simulator.hpp"
#include "sim/l2_slice.hpp"
#include "sim/mem_controller.hpp"
#include "sim/scheme_registry.hpp"
#include "sim/warp_program.hpp"

namespace sealdl::sim {
namespace {

/// Minimal deterministic generator (same constants as MMIX). Seeded per test
/// so every run of the suite replays the identical "random" streams.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed * 2862933555777941757ULL + 1) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 17;
  }
  std::uint64_t next(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

// ------------------------------------------------------------ component ---

struct StreamEvent {
  Cycle at = 0;
  bool is_read = false;
  Addr addr = 0;
};

/// A random line-request stream with long idle gaps (the spans a skipping
/// run loop jumps over) and a small address pool (so hits, misses, MSHR
/// merges, and counter-cache hits all occur).
std::vector<StreamEvent> make_stream(std::uint64_t seed, int events) {
  Lcg lcg(seed);
  std::vector<StreamEvent> stream;
  stream.reserve(static_cast<std::size_t>(events));
  Cycle now = 0;
  for (int i = 0; i < events; ++i) {
    now += lcg.next(40);
    if (lcg.next(8) == 0) now += 2000 + lcg.next(4000);  // long idle span
    StreamEvent event;
    event.at = now;
    event.is_read = lcg.next(4) != 0;  // 3:1 reads to writes
    event.addr = static_cast<Addr>(lcg.next(192)) * 128;  // 24 KB pool
    stream.push_back(event);
  }
  return stream;
}

/// Observable component state the profiler reads during spans. Asserted
/// constant between presentations by the unskipped driver.
struct StackObservation {
  Cycle hit_busy, dram_busy, aes_busy, counter_busy;
  bool pending_fills;

  bool operator==(const StackObservation& other) const {
    return hit_busy == other.hit_busy && dram_busy == other.dram_busy &&
           aes_busy == other.aes_busy && counter_busy == other.counter_busy &&
           pending_fills == other.pending_fills;
  }
};

/// Presents `stream` to a fresh L2Slice + MemoryController stack. With
/// `skip` false the clock walks every cycle between events; with `skip`
/// true it jumps. Returns the full observable trace: one entry per returned
/// cycle/flag, plus the drained final stats.
std::pair<std::vector<std::uint64_t>, SimStats> run_stream(
    const GpuConfig& config, const std::vector<StreamEvent>& stream,
    bool skip) {
  MemoryController controller(config, /*secure_map=*/nullptr);
  L2Slice slice(config, &controller);
  std::vector<std::uint64_t> trace;

  const auto observe = [&] {
    return StackObservation{slice.hit_busy_until(),
                            controller.dram_busy_until(),
                            controller.aes_busy_until(),
                            controller.counter_busy_until(),
                            slice.has_pending_fills()};
  };

  // Pending fills become events of their own, delivered at fill_ready, the
  // same discipline GpuSimulator::deliver_ready uses.
  std::vector<std::pair<Cycle, Addr>> fills;
  Cycle now = 0;
  std::size_t next_event = 0;
  while (next_event < stream.size() || !fills.empty()) {
    // Next interesting cycle: the earlier of the next request and the next
    // completed fill.
    Cycle target = ~static_cast<Cycle>(0);
    if (next_event < stream.size()) target = stream[next_event].at;
    for (const auto& fill : fills) target = std::min(target, fill.first);

    if (skip) {
      now = std::max(now, target);
    } else {
      // Walk to the target one cycle at a time, checking that nothing the
      // profiler could observe moves while no request is presented.
      const StackObservation before = observe();
      while (now < target) {
        ++now;
        EXPECT_TRUE(observe() == before)
            << "component state changed during an idle span at cycle " << now;
      }
    }

    for (std::size_t i = 0; i < fills.size();) {
      if (fills[i].first <= now) {
        const auto waiters = slice.complete_fill(now, fills[i].second);
        trace.push_back(waiters.size());
        for (const Waiter& waiter : waiters) {
          trace.push_back(static_cast<std::uint64_t>(waiter.sm_id));
          trace.push_back(static_cast<std::uint64_t>(waiter.warp_id));
        }
        fills[i] = fills.back();
        fills.pop_back();
      } else {
        ++i;
      }
    }
    while (next_event < stream.size() && stream[next_event].at <= now) {
      const StreamEvent& event = stream[next_event++];
      if (event.is_read) {
        Cycle fill_ready = 0;
        const L2ReadResult result = slice.read(
            now, event.addr, Waiter{0, static_cast<int>(next_event)},
            &fill_ready);
        trace.push_back(result.hit ? result.ready : 0);
        trace.push_back(result.merged);
        if (!result.hit && !result.merged) {
          trace.push_back(fill_ready);
          fills.emplace_back(fill_ready, event.addr & ~static_cast<Addr>(127));
        }
      } else {
        slice.write(now, event.addr & ~static_cast<Addr>(127));
      }
    }
  }

  slice.flush(now);
  trace.push_back(controller.flush(now));
  SimStats stats;
  controller.accumulate(stats);
  stats.l2_hits = slice.hit_rate().hits;
  stats.l2_misses = slice.hit_rate().total - slice.hit_rate().hits;
  return {std::move(trace), stats};
}

void expect_stats_identical(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
  EXPECT_EQ(a.encrypted_bytes, b.encrypted_bytes);
  EXPECT_EQ(a.bypassed_bytes, b.bypassed_bytes);
  EXPECT_EQ(a.aes_busy_cycles, b.aes_busy_cycles);
  EXPECT_EQ(a.dram_busy_cycles, b.dram_busy_cycles);
  EXPECT_EQ(a.counter_hits, b.counter_hits);
  EXPECT_EQ(a.counter_misses, b.counter_misses);
  EXPECT_EQ(a.counter_traffic_bytes, b.counter_traffic_bytes);
}

class MemoryStackSkipProperty
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(MemoryStackSkipProperty, SkippedPresentationMatchesPerCycle) {
  const auto& [scheme, seed] = GetParam();
  GpuConfig config = GpuConfig::gtx480();
  config.scheme = &resolve_scheme(scheme);

  const auto stream = make_stream(static_cast<std::uint64_t>(seed), 600);
  const auto per_cycle = run_stream(config, stream, /*skip=*/false);
  const auto skipped = run_stream(config, stream, /*skip=*/true);
  EXPECT_EQ(per_cycle.first, skipped.first);
  expect_stats_identical(per_cycle.second, skipped.second);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, MemoryStackSkipProperty,
    ::testing::Combine(::testing::Values("baseline", "direct", "counter"),
                       ::testing::Values(1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<MemoryStackSkipProperty::ParamType>&
           info) {
      return std::string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// -------------------------------------------------------- whole machine ---

/// A warp program of `ops` pseudo-random instructions. Same seed => same
/// sequence, so two simulators can be loaded with identical work.
class RandomWarpProgram final : public WarpProgram {
 public:
  RandomWarpProgram(std::uint64_t seed, int ops) : lcg_(seed), remaining_(ops) {}

  std::optional<WarpOp> next() override {
    if (remaining_ == 0) {
      // Final barrier so every load returns before the warp retires.
      if (!drained_) {
        drained_ = true;
        return WarpOp{WarpOp::Kind::kWaitLoads, 0, 0};
      }
      return std::nullopt;
    }
    --remaining_;
    const std::uint64_t roll = lcg_.next(10);
    const Addr addr = static_cast<Addr>(lcg_.next(4096)) * 128;
    if (roll < 4) {
      return WarpOp{WarpOp::Kind::kCompute,
                    0,
                    static_cast<std::uint32_t>(1 + lcg_.next(8))};
    }
    if (roll < 7) return WarpOp{WarpOp::Kind::kLoad, addr, 1};
    if (roll < 9) return WarpOp{WarpOp::Kind::kStore, addr, 1};
    return WarpOp{WarpOp::Kind::kWaitLoads, 0,
                  static_cast<std::uint32_t>(lcg_.next(3))};
  }

 private:
  Lcg lcg_;
  int remaining_;
  bool drained_ = false;
};

SimStats run_random_machine(const GpuConfig& config, std::uint64_t seed,
                            int warps, int ops, bool fast_path) {
  std::vector<WarpProgramPtr> programs;
  programs.reserve(static_cast<std::size_t>(warps));
  for (int w = 0; w < warps; ++w) {
    programs.push_back(std::make_unique<RandomWarpProgram>(
        seed * 1000003ULL + static_cast<std::uint64_t>(w), ops));
  }
  GpuSimulator simulator(config);
  simulator.set_fast_path(fast_path);
  simulator.load_work(std::move(programs));
  simulator.run();
  return simulator.stats();
}

class RandomMachineFastPath
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(RandomMachineFastPath, FastPathMatchesNaiveOnRandomPrograms) {
  const auto& [scheme, seed] = GetParam();
  GpuConfig config = GpuConfig::gtx480();
  config.scheme = &resolve_scheme(scheme);
  // Under-filled machine: some SMs get fewer warps (or none), so the per-SM
  // may_issue() skip and the pending-launch gate both matter.
  const int warps = config.num_sms * 2 + 3;

  const SimStats fast = run_random_machine(config, static_cast<std::uint64_t>(seed),
                                           warps, 400, /*fast_path=*/true);
  const SimStats slow = run_random_machine(config, static_cast<std::uint64_t>(seed),
                                           warps, 400, /*fast_path=*/false);
  EXPECT_EQ(fast.cycles, slow.cycles);
  EXPECT_EQ(fast.warp_instructions, slow.warp_instructions);
  EXPECT_EQ(fast.thread_instructions, slow.thread_instructions);
  expect_stats_identical(fast, slow);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, RandomMachineFastPath,
    ::testing::Combine(::testing::Values("baseline", "counter"),
                       ::testing::Values(11, 12, 13)),
    [](const ::testing::TestParamInfo<RandomMachineFastPath::ParamType>&
           info) {
      return std::string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sealdl::sim
